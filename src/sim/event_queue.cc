#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/log.hh"
#include "sim/profile.hh"

namespace dvfs::sim {

EventQueue::EventQueue() : _now(0), _nextSeq(0), _executed(0) {}

EventQueue::~EventQueue()
{
    // A run may end (main exit, requestStop) with events still
    // scheduled; every entry ever allocated is owned by _entries.
    for (Entry *e : _entries)
        delete e;
}

EventQueue::Entry *
EventQueue::allocEntry()
{
    if (!_pool.empty()) {
        Entry *e = _pool.back();
        _pool.pop_back();
        return e;
    }
    Entry *e = new Entry();
    e->slot = static_cast<std::uint32_t>(_entries.size());
    e->gen = 0;
    e->pos = kNotQueued;
    _entries.push_back(e);
    return e;
}

void
EventQueue::freeEntry(Entry *e)
{
    e->cb.reset();
    ++e->gen;  // invalidate any EventId still pointing at this entry
    _pool.push_back(e);
}

EventQueue::Entry *
EventQueue::resolve(EventId id) const
{
    std::uint64_t slot_plus_one = id >> 32;
    if (slot_plus_one == 0 || slot_plus_one > _entries.size())
        return nullptr;
    Entry *e = _entries[static_cast<std::size_t>(slot_plus_one) - 1];
    if (e->pos == kNotQueued || e->gen != static_cast<std::uint32_t>(id))
        return nullptr;
    return e;
}

void
EventQueue::siftUp(std::size_t i, Node n)
{
    while (i > 0) {
        const std::size_t parent = (i - 1) / kArity;
        if (!before(n, _heap[parent]))
            break;
        put(i, _heap[parent]);
        i = parent;
    }
    put(i, n);
}

EventQueue::Entry *
EventQueue::acquire(Tick when)
{
    if (when < _now) {
        panic("event scheduled in the past (when=%llu now=%llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(_now));
    }
    if (when == kTickNever)
        panic("event scheduled at the kTickNever sentinel");
    Entry *e = allocEntry();
    _heap.emplace_back();
    siftUp(_heap.size() - 1, Node{when, _nextSeq++, e});
    return e;
}

void
EventQueue::removeAt(std::size_t i)
{
    _heap[i].e->pos = kNotQueued;
    const Node last = _heap.back();
    _heap.pop_back();
    const std::size_t size = _heap.size();
    if (i == size)
        return;  // the removed node was the last one
    // Walk the hole down to a leaf, each step lifting the earliest
    // child, then sift the last node up from there. The path from the
    // root to the hole stays sorted, so the last node finds its place
    // on it, above the starting hole if it belongs there.
    for (std::size_t first = kArity * i + 1; first < size;
         first = kArity * i + 1) {
        std::size_t child = first;
        const std::size_t end = std::min(first + kArity, size);
        for (std::size_t c = first + 1; c < end; ++c)
            if (before(_heap[c], _heap[child]))
                child = c;
        put(i, _heap[child]);
        i = child;
    }
    siftUp(i, last);
}

bool
EventQueue::cancel(EventId id)
{
    Entry *e = resolve(id);
    if (!e)
        return false;
    removeAt(e->pos);
    freeEntry(e);
    return true;
}

void
EventQueue::dispatchTop()
{
    const Node top = _heap.front();
    DVFS_ASSERT(top.when >= _now, "event time went backwards");
    _now = top.when;
    removeAt(0);
    ++_executed;
    // Invoke in place: the entry is already off the heap, so the
    // callback may schedule (including same-tick) or cancel freely;
    // it just cannot be recycled until it returns.
    top.e->cb();
    freeEntry(top.e);
}

bool
EventQueue::runOne()
{
    DVFS_PROFILE_SCOPE(Kernel);
    if (_heap.empty())
        return false;
    dispatchTop();
    return true;
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    DVFS_PROFILE_SCOPE(Kernel);
    std::uint64_t n = 0;
    while (!_heap.empty()) {
        if (_heap.front().when >= limit) {
            _now = limit;  // events remain at or beyond the limit
            break;
        }
        dispatchTop();
        ++n;
    }
    return n;
}

} // namespace dvfs::sim
