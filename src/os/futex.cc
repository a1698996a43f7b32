#include "os/futex.hh"

#include "sim/log.hh"

namespace dvfs::os {

SyncId
FutexTable::allocate()
{
    _queues.emplace_back();
    return _next++;
}

void
FutexTable::wait(SyncId f, ThreadId tid)
{
    if (f == kNoSync)
        panic("futex wait on invalid sync id (thread %u)", tid);
    // Ids are normally dense (from allocate()), but tolerate waits on
    // ids minted elsewhere, as the hash-map representation did.
    if (f >= _queues.size())
        _queues.resize(f + 1);
    _queues[f].push_back(tid);
    ++_waiting;
}

std::size_t
FutexTable::wake(SyncId f, std::uint32_t n, std::vector<ThreadId> &out)
{
    out.clear();
    if (f >= _queues.size())
        return 0;
    WaitQueue &q = _queues[f];
    while (n-- > 0 && !q.empty()) {
        out.push_back(q.front());
        q.erase(q.begin());
    }
    _waiting -= out.size();
    return out.size();
}

std::size_t
FutexTable::waiters(SyncId f) const
{
    return f < _queues.size() ? _queues[f].size() : 0;
}

void
FutexTable::reset()
{
    _queues.clear();
    _waiting = 0;
    _next = 0;
}

} // namespace dvfs::os
