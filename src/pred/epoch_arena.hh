/**
 * @file
 * The packed storage behind every epoch's active-thread list.
 *
 * A sync-bound run closes tens of thousands of epochs, each listing
 * the counter deltas of the threads that were on a core. Most of
 * those deltas are zero (a thread that ran no GC has no store bursts,
 * a short epoch has no DRAM loads), so the record keeps them packed:
 * one arena of 64-bit words per record, where each active thread is
 *
 *     header word   tid | (nonzero-field mask << 32)
 *     field words   the nonzero counter fields, in CounterField order
 *
 * An epoch's entries are contiguous, so the epoch holds a two-word
 * view (first word, entry count) rather than a vector of its own.
 * Blocks are never moved or freed while the arena lives: a view taken
 * from the live recorder stays valid while the recorder appends.
 */

#ifndef DVFS_PRED_EPOCH_ARENA_HH
#define DVFS_PRED_EPOCH_ARENA_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <vector>

#include "os/action.hh"
#include "uarch/perf_counters.hh"

namespace dvfs::pred {

/** Counter deltas of one active thread within one epoch. */
struct EpochThread {
    os::ThreadId tid = os::kNoThread;
    uarch::PerfCounters delta;
};

static_assert(uarch::kCounterFields <= 32,
              "the nonzero-field mask is the header's high 32 bits");

/**
 * Set bits of a field mask. Baseline x86-64 has no POPCNT, so
 * std::popcount is a libgcc call there; the packed walk counts once
 * per entry, so it looks each mask byte up instead.
 */
inline unsigned
maskPopcount(std::uint32_t m)
{
    static constexpr std::array<std::uint8_t, 256> kBits = [] {
        std::array<std::uint8_t, 256> t{};
        for (unsigned v = 1; v < t.size(); ++v)
            t[v] = static_cast<std::uint8_t>(t[v >> 1] + (v & 1));
        return t;
    }();
    unsigned n = 0;
    for (unsigned b = 0; b < uarch::kCounterFields; b += 8)
        n += kBits[m >> b & 0xff];
    return n;
}

/** One packed entry: a header word, then its nonzero fields. */
class PackedThread
{
  public:
    /** Most words one entry takes: header plus every field. */
    static constexpr std::size_t kMaxWords = 1 + uarch::kCounterFields;

    explicit PackedThread(const std::uint64_t *w) : _w(w) {}

    os::ThreadId tid() const { return static_cast<os::ThreadId>(*_w); }

    /** Bit f set iff field f is nonzero (and stored). */
    std::uint32_t
    mask() const
    {
        return static_cast<std::uint32_t>(*_w >> 32);
    }

    /** The stored (nonzero) fields, in CounterField order. */
    const std::uint64_t *fields() const { return _w + 1; }

    /** Field @p f's value; zero if the entry does not store it. */
    std::uint64_t
    field(uarch::CounterField f) const
    {
        const unsigned i = static_cast<unsigned>(f);
        const std::uint32_t m = mask();
        const std::uint64_t stored = m >> i & 1;
        // Offset of f when stored; otherwise a word of this entry
        // before f, masked to zero. No branch, no read past the entry.
        return _w[maskPopcount(m & ((1u << i) - 1)) + stored] &
               (0 - stored);
    }

    /** The word after this entry (the next entry's header). */
    const std::uint64_t *
    end() const
    {
        return _w + 1 + maskPopcount(mask());
    }

    EpochThread
    decode() const
    {
        uarch::CounterWords d{};
        const std::uint64_t *f = fields();
        for (std::uint32_t m = mask(); m != 0; m &= m - 1)
            d[std::countr_zero(m)] = *f++;
        return EpochThread{tid(), uarch::fromWords(d)};
    }

    /**
     * Pack @p tid and `now - base` at @p out; returns the words
     * written. Writes up to kMaxWords words whatever the mask, so
     * @p out must have that much room.
     */
    static std::size_t
    pack(std::uint64_t *out, os::ThreadId tid, const uarch::PerfCounters &now,
         const uarch::PerfCounters &base = {})
    {
        const uarch::CounterWords n = uarch::toWords(now);
        const uarch::CounterWords b = uarch::toWords(base);
        std::uint64_t *p = out + 1;
        std::uint64_t mask = 0;
        for (unsigned f = 0; f < uarch::kCounterFields; ++f) {
            const std::uint64_t d = n[f] - b[f];
            *p = d;
            const bool nonzero = d != 0;
            mask |= static_cast<std::uint64_t>(nonzero) << f;
            p += nonzero;
        }
        *out = static_cast<std::uint64_t>(tid) | mask << 32;
        return static_cast<std::size_t>(p - out);
    }

  private:
    const std::uint64_t *_w;
};

/**
 * An epoch's active threads: a view of its packed entries, in
 * ascending tid order. Iteration decodes each entry into an
 * EpochThread by value, so range-for over it reads like a vector;
 * hot readers walk PackedThread entries from words() instead.
 */
class ActiveThreads
{
  public:
    class iterator
    {
      public:
        using iterator_category = std::input_iterator_tag;
        using value_type = EpochThread;
        using difference_type = std::ptrdiff_t;
        using pointer = void;
        using reference = EpochThread;

        iterator() = default;
        iterator(const std::uint64_t *w, std::size_t left)
            : _w(w), _left(left)
        {
        }

        EpochThread operator*() const { return PackedThread(_w).decode(); }

        iterator &
        operator++()
        {
            _w = PackedThread(_w).end();
            --_left;
            return *this;
        }

        iterator
        operator++(int)
        {
            const iterator old = *this;
            ++*this;
            return old;
        }

        bool
        operator==(const iterator &o) const
        {
            return _left == o._left;
        }

      private:
        const std::uint64_t *_w = nullptr;
        std::size_t _left = 0;
    };

    ActiveThreads() = default;
    ActiveThreads(const std::uint64_t *w, std::size_t count)
        : _w(w), _count(count)
    {
    }

    std::size_t size() const { return _count; }
    bool empty() const { return _count == 0; }
    iterator begin() const { return {_w, _count}; }
    iterator end() const { return {}; }

    /** The first entry's header word (null when empty). */
    const std::uint64_t *words() const { return _w; }

  private:
    const std::uint64_t *_w = nullptr;
    std::size_t _count = 0;
};

/**
 * Append-only word storage for one record's ActiveThreads views.
 *
 * Blocks double from kFirstBlockWords up to kBlockWords, so a small
 * record stays small and a long one adds fixed 64 KiB blocks. An
 * epoch's entries never straddle a block.
 */
class EpochArena
{
  public:
    static constexpr std::size_t kFirstBlockWords = 256;
    static constexpr std::size_t kBlockWords = 8192;

    /**
     * Room for @p entries entries of any mask, contiguous. Pack them
     * with PackedThread::pack from the returned word, then commit().
     */
    std::uint64_t *
    reserve(std::size_t entries)
    {
        const std::size_t words = entries * PackedThread::kMaxWords;
        if (static_cast<std::size_t>(_limit - _cur) < words)
            grow(words);
        return _cur;
    }

    /**
     * Close the span opened by the last reserve() at @p end (one past
     * its last packed word) and return its view.
     */
    ActiveThreads
    commit(std::uint64_t *end, std::size_t count)
    {
        const ActiveThreads view(count != 0 ? _cur : nullptr, count);
        _usedWords += static_cast<std::size_t>(end - _cur);
        _cur = end;
        return view;
    }

    /** Pack @p threads (ascending tid) and return their view. */
    ActiveThreads append(std::span<const EpochThread> threads);

    /** Bytes of packed entries. */
    std::size_t
    usedBytes() const
    {
        return _usedWords * sizeof(std::uint64_t);
    }

    /** Bytes of blocks held (what the arena costs in memory). */
    std::size_t
    bytes() const
    {
        return _allocatedWords * sizeof(std::uint64_t);
    }

  private:
    /** Start a block with room for at least @p words. */
    void grow(std::size_t words);

    std::vector<std::unique_ptr<std::uint64_t[]>> _blocks;
    std::uint64_t *_cur = nullptr;
    std::uint64_t *_limit = nullptr;
    std::size_t _usedWords = 0;
    std::size_t _allocatedWords = 0;
};

} // namespace dvfs::pred

#endif // DVFS_PRED_EPOCH_ARENA_HH
