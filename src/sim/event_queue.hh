/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The event queue is the single source of simulated time. Components
 * schedule callbacks at absolute ticks; the kernel dispatches them in
 * (tick, insertion-order) order, which makes simulations bitwise
 * deterministic for a given workload and configuration.
 *
 * The implementation is a 4-ary min-heap (DESIGN.md §9) sized to the
 * simulator's traffic, which never keeps more than a handful of events
 * pending. Heap nodes carry the (tick, sequence) key inline and point
 * at pooled entries that hold the callbacks, so sifts move 24-byte
 * nodes and never the entries. Each entry records its heap position,
 * so cancellation is eager and O(log n). ReferenceEventQueue is the
 * differential oracle for the ordering contract.
 */

#ifndef DVFS_SIM_EVENT_QUEUE_HH
#define DVFS_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/inline_callback.hh"
#include "sim/time.hh"

namespace dvfs::sim {

/**
 * Inline storage for an event callback's captures.
 *
 * Sized for the largest capture list in the tree: the mutex-unlock
 * continuation in os/system.cc captures {System*, Thread*, MutexObj*,
 * Tick, PerfCounters} = 152 bytes. A schedule site whose captures
 * outgrow this fails to compile (see InlineCallback::emplace), at
 * which point either shrink the capture or raise this constant —
 * every pooled event entry carries this many bytes.
 */
inline constexpr std::size_t kEventCallbackBytes = 160;

/** Callback type executed when an event fires (allocation-free). */
using EventCallback = InlineCallback<kEventCallbackBytes>;

/** Opaque handle identifying a scheduled event (for cancellation). */
using EventId = std::uint64_t;

/** Sentinel for "no event". */
constexpr EventId kNoEvent = 0;

/**
 * A deterministic discrete-event queue over a 4-ary min-heap.
 *
 * Events scheduled for the same tick fire in insertion order. Events
 * may schedule further events, including at the current tick (they run
 * after all previously-inserted same-tick events). Scheduling in the
 * past is a simulator bug and panics; so is scheduling at the
 * kTickNever sentinel, which the kernel reserves as "no deadline".
 */
class EventQueue
{
  public:
    EventQueue();
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /**
     * Schedule @p cb to run at absolute time @p when.
     *
     * The callable is constructed directly into the pooled entry's
     * inline storage; captures larger than kEventCallbackBytes are a
     * compile-time error.
     *
     * @param when Absolute tick, must be >= now() and != kTickNever.
     * @param cb   Callback to execute.
     * @return Handle usable with cancel().
     */
    template <typename F>
    EventId
    schedule(Tick when, F &&cb)
    {
        Entry *e = acquire(when);
        e->cb.emplace(std::forward<F>(cb));
        return makeId(e->slot, e->gen);
    }

    /** Schedule @p cb to run @p delay ticks from now. */
    template <typename F>
    EventId
    scheduleAfter(Tick delay, F &&cb)
    {
        return schedule(_now + delay, std::forward<F>(cb));
    }

    /**
     * Cancel a previously scheduled event.
     *
     * Cancelling an event that already fired (or was already cancelled)
     * is a no-op and returns false. Cancellation is eager: the entry is
     * taken off the heap at its recorded position and recycled
     * immediately, so parked far-future timers never pin pool entries.
     */
    bool cancel(EventId id);

    /** True if no runnable events remain. */
    bool empty() const { return _heap.empty(); }

    /** Number of pending (non-cancelled) events. */
    std::uint64_t pending() const { return _heap.size(); }

    /**
     * Run the next event, advancing time to its tick.
     *
     * @return false if the queue was empty.
     */
    bool runOne();

    /**
     * Run events until the queue empties or @p limit is reached.
     *
     * Events scheduled at exactly @p limit are not executed; time
     * stops at the last executed event (or @p limit if provided and
     * events remain beyond it).
     *
     * @return Number of events executed.
     */
    std::uint64_t runUntil(Tick limit);

    /**
     * Run until the queue is empty (no event can be due at
     * kTickNever). @return events executed.
     */
    std::uint64_t run() { return runUntil(kTickNever); }

    /** Total number of events executed since construction. */
    std::uint64_t executed() const { return _executed; }

    /**
     * Number of entries ever allocated (pool high-water mark). Stays
     * flat in steady state: retired entries are recycled, so this only
     * grows with the peak number of simultaneously pending events.
     */
    std::size_t entriesAllocated() const { return _entries.size(); }

  private:
    /**
     * Entries are pooled and identified by a permanent slot plus a
     * per-reuse generation; an EventId packs (slot+1, generation), so
     * cancel() is two array reads instead of a hash lookup and stale
     * handles (fired, cancelled, or from a recycled entry) are
     * rejected by the generation check. The callback's captures live
     * inside the entry (EventCallback is inline storage), so a
     * schedule/fire cycle through the pool performs zero heap
     * allocations. `pos` is the entry's index in _heap, kept current
     * by every sift, so cancel removes it in place.
     */
    struct Entry {
        std::uint32_t slot;  ///< permanent index into _entries
        std::uint32_t gen;   ///< bumped on retire; stale ids mismatch
        std::uint32_t pos;   ///< index in _heap, or kNotQueued
        EventCallback cb;
    };

    static constexpr std::uint32_t kNotQueued = 0xFFFFFFFFu;

    /**
     * A heap node: the ordering key inline, so sifts compare and move
     * 24-byte nodes and never touch the pooled entries' callbacks.
     */
    struct Node {
        Tick when;
        std::uint64_t seq;  ///< insertion order (same-tick FIFO)
        Entry *e;
    };

    /** Heap order: earliest tick first, then insertion order. */
    static bool
    before(const Node &a, const Node &b)
    {
        return a.when != b.when ? a.when < b.when : a.seq < b.seq;
    }

    /** Pack an entry's identity into an opaque EventId (never 0). */
    static constexpr EventId
    makeId(std::uint32_t slot, std::uint32_t gen)
    {
        return (static_cast<EventId>(slot) + 1) << 32 | gen;
    }

    /**
     * Validate @p when, pull an entry from the pool and push it onto
     * the heap. The caller fills in the callback.
     */
    Entry *acquire(Tick when);

    /**
     * Heap arity. Four children per node halve the depth of a binary
     * heap, so a pop of a large heap moves half as many nodes (each
     * move also writes the moved entry's `pos`); the four children
     * share one or two cache lines. Five pending events, the
     * simulator's common case, fit in two levels.
     */
    static constexpr std::size_t kArity = 4;

    /** Store @p n at heap index @p i and record the index in its entry. */
    void
    put(std::size_t i, const Node &n)
    {
        _heap[i] = n;
        n.e->pos = static_cast<std::uint32_t>(i);
    }

    /** Move @p n up from hole @p i to its place. */
    void siftUp(std::size_t i, Node n);

    /** Take the node at @p i off the heap and refill the hole. */
    void removeAt(std::size_t i);

    /** Pop the root, advance time to its tick and fire it in place. */
    void dispatchTop();

    Tick _now;                ///< reported simulated time
    std::uint64_t _nextSeq;   ///< seq of the next scheduled event
    std::uint64_t _executed;
    std::vector<Node> _heap;  ///< 4-ary min-heap of pending events

    std::vector<Entry *> _entries;  ///< every entry ever allocated
    std::vector<Entry *> _pool;     ///< freelist of recycled entries

    Entry *allocEntry();
    void freeEntry(Entry *e);

    /** Resolve an EventId to its pending entry, or nullptr if stale. */
    Entry *resolve(EventId id) const;
};

} // namespace dvfs::sim

#endif // DVFS_SIM_EVENT_QUEUE_HH
