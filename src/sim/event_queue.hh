/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The event queue is the single source of simulated time. Components
 * schedule callbacks at absolute ticks; the kernel dispatches them in
 * (tick, insertion-order) order, which makes simulations bitwise
 * deterministic for a given workload and configuration.
 *
 * The implementation is a hierarchical timing wheel (DESIGN.md §9):
 * six levels of 256 slots indexed by successive bytes of the event
 * tick, a far-future overflow FIFO beyond the 48-bit horizon, and an
 * intrusive doubly-linked FIFO of pooled entries per slot. Schedule,
 * cancel and dispatch are all O(1) amortized; the deterministic
 * ordering contract — earliest tick first, insertion order within a
 * tick — holds by construction because a tick maps to exactly one
 * slot and slot lists are append-only FIFOs. The pre-wheel binary
 * heap survives as ReferenceEventQueue for differential testing.
 */

#ifndef DVFS_SIM_EVENT_QUEUE_HH
#define DVFS_SIM_EVENT_QUEUE_HH

#include <bit>
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
 * A deterministic discrete-event queue over a hierarchical timing
 * wheel.
 *
 * Events scheduled for the same tick fire in insertion order. Events
 * may schedule further events, including at the current tick (they run
 * after all previously-inserted same-tick events). Scheduling in the
 * past is a simulator bug and panics; so is scheduling at the
 * kTickNever sentinel, which the wheel reserves as "no deadline".
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
     * unlinked from its wheel slot (or the overflow list) and recycled
     * immediately, so parked far-future timers never pin pool entries.
     */
    bool cancel(EventId id);

    /** True if no runnable events remain. */
    bool empty() const { return _live == 0; }

    /** Number of pending (non-cancelled) events. */
    std::uint64_t pending() const { return _live; }

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
     * events remain beyond it). Same-tick events are batch-dispatched:
     * a slot's FIFO is drained without re-consulting the wheel between
     * entries.
     *
     * @return Number of events executed.
     */
    std::uint64_t runUntil(Tick limit);

    /** Run until the queue is empty. @return events executed. */
    std::uint64_t run();

    /** Total number of events executed since construction. */
    std::uint64_t executed() const { return _executed; }

    /**
     * Number of entries ever allocated (pool high-water mark). Stays
     * flat in steady state: retired entries are recycled, so this only
     * grows with the peak number of simultaneously pending events.
     */
    std::size_t entriesAllocated() const { return _entries.size(); }

  private:
    /// @name Wheel geometry
    /// @{
    static constexpr unsigned kLevelBits = 8;
    static constexpr unsigned kSlotsPerLevel = 1u << kLevelBits;  // 256
    static constexpr unsigned kLevels = 6;
    /** Ticks addressable by the wheel before the overflow list. */
    static constexpr unsigned kHorizonBits = kLevels * kLevelBits; // 48
    static constexpr unsigned kOccWords = kSlotsPerLevel / 64;     // 4
    /// @}

    /**
     * Entries are pooled and identified by a permanent slot plus a
     * per-reuse generation; an EventId packs (slot+1, generation), so
     * cancel() is two array reads instead of a hash lookup and stale
     * handles (fired, cancelled, or from a recycled entry) are
     * rejected by the generation check. The callback's captures live
     * inside the entry (EventCallback is inline storage), so a
     * schedule/fire cycle through the pool performs zero heap
     * allocations. next/prev link the entry into its wheel slot's
     * FIFO (or the overflow list); `home` records which list so
     * cancel can unlink eagerly.
     */
    struct Entry {
        Tick when;
        Entry *next;
        Entry *prev;
        EventCallback cb;
        std::uint32_t slot;  ///< permanent index into _entries
        std::uint32_t gen;   ///< bumped on retire; stale ids mismatch
        std::uint16_t home;  ///< level<<8|idx, kHomeOverflow, kHomeNone
        bool live;           ///< scheduled and not yet fired/cancelled
    };

    static constexpr std::uint16_t kHomeOverflow = 0xFFFF;
    static constexpr std::uint16_t kHomeNone = 0xFFFE;

    /** Intrusive FIFO: append at tail, dispatch from head. */
    struct List {
        Entry *head = nullptr;
        Entry *tail = nullptr;
    };

    /** Pack an entry's identity into an opaque EventId (never 0). */
    static constexpr EventId
    makeId(std::uint32_t slot, std::uint32_t gen)
    {
        return (static_cast<EventId>(slot) + 1) << 32 | gen;
    }

    static void
    append(List &l, Entry *e)
    {
        e->next = nullptr;
        e->prev = l.tail;
        if (l.tail)
            l.tail->next = e;
        else
            l.head = e;
        l.tail = e;
    }

    static void
    remove(List &l, Entry *e)
    {
        if (e->prev)
            e->prev->next = e->next;
        else
            l.head = e->next;
        if (e->next)
            e->next->prev = e->prev;
        else
            l.tail = e->prev;
    }

    /**
     * File @p e into the wheel (or overflow) by its tick, relative to
     * the wheel cursor. The level is the highest byte in which the
     * tick differs from the cursor; the slot within the level is that
     * byte of the tick. Requires e->when >= _cursor.
     */
    void
    place(Entry *e)
    {
        const Tick diff = e->when ^ _cursor;
        if (diff >> kHorizonBits) {
            // Beyond the 48-bit horizon: park in the overflow FIFO.
            if (_overflow.head == nullptr || e->when < _overflowMin)
                _overflowMin = e->when;
            append(_overflow, e);
            e->home = kHomeOverflow;
            return;
        }
        const unsigned level =
            diff ? (63u - static_cast<unsigned>(std::countl_zero(diff))) /
                       kLevelBits
                 : 0u;
        const unsigned idx = static_cast<unsigned>(
            (e->when >> (level * kLevelBits)) & (kSlotsPerLevel - 1));
        const unsigned s = level * kSlotsPerLevel + idx;
        List &l = _slots[s];
        if (l.head == nullptr || e->when < _slotMin[s])
            _slotMin[s] = e->when;
        append(l, e);
        e->home = static_cast<std::uint16_t>(s);
        _occ[level][idx / 64] |= std::uint64_t{1} << (idx % 64);
        _levelMask |= 1u << level;
    }

    /** Unlink @p e from whichever list `home` says it is on. */
    void unlink(Entry *e);

    /**
     * Validate @p when, pull an entry from the pool and file it into
     * the wheel. The caller fills in the callback.
     */
    Entry *acquire(Tick when);

    /**
     * Advance the cursor to the earliest pending tick, cascading
     * upper-level slots and rebasing from the overflow list as
     * needed. On success sets *tick_out (< @p limit), points the
     * cursor at it, and returns the level-0 slot list holding every
     * event at that tick. Returns nullptr if the queue is empty or
     * the earliest event is at or beyond @p limit (cursor untouched
     * past that point, so later schedules stay well-formed).
     *
     * When the lowest non-empty level is above 0, its first occupied
     * slot holds the earliest pending events. The cursor jumps to the
     * earliest tick in that slot (_slotMin), not to the slot's start,
     * so the cascade files those events directly on level 0. An event
     * is then re-filed about once on its way down instead of once
     * per level. This is sound because every level below is empty
     * and every entry of the slot is at or after that tick.
     */
    List *advance(Tick limit, Tick *tick_out);

    /** Re-place every entry of an upper-level slot after the cursor
     *  moved to the slot's earliest tick (FIFO order preserved, so
     *  same-tick entries keep insertion order). */
    void cascade(unsigned level, unsigned idx);

    /** Move the cursor to the overflow minimum and drain every
     *  overflow entry in the cursor's new top-level epoch. */
    void rebase();

    /** Fire @p e (head of the current level-0 slot) in place. */
    void dispatch(Entry *e);

    Tick _now;     ///< reported simulated time
    /**
     * Wheel placement reference. Invariants: _cursor <= _now; every
     * wheel entry's tick shares the cursor's top 16 bits and is >=
     * _cursor; every overflow entry's tick has a strictly greater
     * top-16-bit epoch. Unlike _now, the cursor never moves past an
     * undispatched event, so slot indices computed from it always
     * land at or after it on every level.
     */
    Tick _cursor;
    std::uint64_t _live;
    std::uint64_t _executed;

    List _slots[kLevels * kSlotsPerLevel];
    /**
     * Per non-empty slot, the earliest tick filed into it since it was
     * last empty. A cancel of that entry leaves it below the slot's
     * real minimum but never below the slot's start, so advance()'s
     * jump is then merely shorter. Meaningless for an empty slot.
     */
    Tick _slotMin[kLevels * kSlotsPerLevel] = {};
    std::uint64_t _occ[kLevels][kOccWords];  ///< slot occupancy bitmaps
    std::uint32_t _levelMask;                ///< bit l: level l non-empty
    List _overflow;
    Tick _overflowMin;  ///< exact min tick on _overflow when non-empty

    std::vector<Entry *> _entries;  ///< every entry ever allocated
    std::vector<Entry *> _pool;     ///< freelist of recycled entries

    Entry *allocEntry();
    void freeEntry(Entry *e);

    /** Resolve an EventId to its live entry, or nullptr if stale. */
    Entry *resolve(EventId id) const;
};

} // namespace dvfs::sim

#endif // DVFS_SIM_EVENT_QUEUE_HH
