#include "pred/epoch_arena.hh"

#include <algorithm>

namespace dvfs::pred {

void
EpochArena::grow(std::size_t words)
{
    // Each block as large as all earlier ones together, capped; an
    // epoch wider than the cap gets a block of its own size.
    const std::size_t size = std::max(
        words, std::clamp(_allocatedWords, kFirstBlockWords, kBlockWords));
    _blocks.push_back(std::make_unique_for_overwrite<std::uint64_t[]>(size));
    _cur = _blocks.back().get();
    _limit = _cur + size;
    _allocatedWords += size;
}

ActiveThreads
EpochArena::append(std::span<const EpochThread> threads)
{
    std::uint64_t *p = reserve(threads.size());
    for (const EpochThread &et : threads)
        p += PackedThread::pack(p, et.tid, et.delta);
    return commit(p, threads.size());
}

} // namespace dvfs::pred
