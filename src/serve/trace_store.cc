#include "serve/trace_store.hh"

#include "trace/writer.hh"

namespace dvfs::serve {

std::size_t
TraceStore::footprint(const trace::LoadedTrace &t)
{
    std::size_t bytes = sizeof(trace::LoadedTrace);
    bytes += t.threads.size() * sizeof(pred::ThreadSummary);
    bytes += t.gcMarks.size() * sizeof(pred::GcPhaseMark);
    bytes += t.events.size() * sizeof(t.events[0]);
    bytes += t.epochs.size() * sizeof(pred::Epoch);
    bytes += t.arena->bytes();
    return bytes;
}

TraceStore::PutResult
TraceStore::put(const std::vector<std::uint8_t> &image)
{
    // The header digest names the entry; cheap to read, and decode
    // verifies it against the bytes before anything is cached.
    const std::uint64_t digest = trace::tracePayloadDigest(image);

    {
        std::lock_guard<std::mutex> lock(_mtx);
        auto it = _index.find(digest);
        if (it != _index.end()) {
            _lru.splice(_lru.begin(), _lru, it->second);
            ++_stats.reuses;
            return {digest, true, it->second->trace};
        }
    }

    // Strict decode outside the lock: uploads of distinct traces
    // never serialize behind each other's parsing.
    auto loaded = std::make_shared<const trace::LoadedTrace>(
        trace::decodeTrace(image));
    const std::size_t bytes = footprint(*loaded);

    std::lock_guard<std::mutex> lock(_mtx);
    auto it = _index.find(digest);
    if (it != _index.end()) {
        // Raced with another upload of the same bytes; keep theirs.
        _lru.splice(_lru.begin(), _lru, it->second);
        ++_stats.reuses;
        return {digest, true, it->second->trace};
    }
    _lru.push_front(Entry{digest, bytes, loaded});
    _index[digest] = _lru.begin();
    _bytes += bytes;
    ++_stats.insertions;
    evictOverBudgetLocked();
    return {digest, false, std::move(loaded)};
}

std::shared_ptr<const trace::LoadedTrace>
TraceStore::get(std::uint64_t digest)
{
    std::lock_guard<std::mutex> lock(_mtx);
    auto it = _index.find(digest);
    if (it == _index.end()) {
        ++_stats.misses;
        return nullptr;
    }
    _lru.splice(_lru.begin(), _lru, it->second);
    ++_stats.hits;
    return it->second->trace;
}

void
TraceStore::evictOverBudgetLocked()
{
    // Keep at least the most recent entry even when it alone exceeds
    // the budget — a cache that cannot hold one trace serves nothing.
    while (_bytes > _capacity && _lru.size() > 1) {
        const Entry &victim = _lru.back();
        _bytes -= victim.bytes;
        _index.erase(victim.digest);
        _lru.pop_back();
        ++_stats.evictions;
    }
}

TraceStoreStats
TraceStore::stats() const
{
    std::lock_guard<std::mutex> lock(_mtx);
    TraceStoreStats s = _stats;
    s.entries = _lru.size();
    s.bytes = _bytes;
    return s;
}

} // namespace dvfs::serve
