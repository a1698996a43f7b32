#include "sim/event_queue.hh"

#include <cstring>

#include "sim/log.hh"
#include "sim/profile.hh"

namespace dvfs::sim {

EventQueue::EventQueue()
    : _now(0), _cursor(0), _live(0), _executed(0), _levelMask(0),
      _overflowMin(kTickNever)
{
    std::memset(_occ, 0, sizeof(_occ));
}

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
    e->home = kHomeNone;
    _entries.push_back(e);
    return e;
}

void
EventQueue::freeEntry(Entry *e)
{
    e->cb.reset();
    ++e->gen;  // invalidate any EventId still pointing at this entry
    e->home = kHomeNone;
    if (_pool.size() < 4096)
        _pool.push_back(e);
    // Over-full pool: the entry stays parked in _entries and is
    // reclaimed by the destructor.
}

EventQueue::Entry *
EventQueue::resolve(EventId id) const
{
    std::uint64_t slot_plus_one = id >> 32;
    if (slot_plus_one == 0 || slot_plus_one > _entries.size())
        return nullptr;
    Entry *e = _entries[static_cast<std::size_t>(slot_plus_one) - 1];
    if (!e->live || e->gen != static_cast<std::uint32_t>(id))
        return nullptr;
    return e;
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
    e->when = when;
    e->live = true;
    place(e);
    ++_live;
    return e;
}

void
EventQueue::unlink(Entry *e)
{
    const std::uint16_t home = e->home;
    e->home = kHomeNone;
    if (home == kHomeOverflow) {
        remove(_overflow, e);
        if (_overflow.head == nullptr) {
            _overflowMin = kTickNever;
        } else if (e->when == _overflowMin) {
            // Rare (a cancelled far-future watchdog): rescan for the
            // exact minimum so rebase() keeps landing on a real tick.
            Tick min = kTickNever;
            for (Entry *o = _overflow.head; o; o = o->next)
                min = o->when < min ? o->when : min;
            _overflowMin = min;
        }
        return;
    }
    DVFS_ASSERT(home != kHomeNone, "entry not on any wheel list");
    List &l = _slots[home];
    remove(l, e);
    if (l.head == nullptr) {
        const unsigned level = home >> kLevelBits;
        const unsigned idx = home & (kSlotsPerLevel - 1);
        _occ[level][idx / 64] &= ~(std::uint64_t{1} << (idx % 64));
        const std::uint64_t *w = _occ[level];
        if ((w[0] | w[1] | w[2] | w[3]) == 0)
            _levelMask &= ~(1u << level);
    }
}

bool
EventQueue::cancel(EventId id)
{
    Entry *e = resolve(id);
    if (!e)
        return false;
    unlink(e);
    e->live = false;
    --_live;
    freeEntry(e);
    return true;
}

void
EventQueue::cascade(unsigned level, unsigned idx)
{
    // The caller moved the cursor to this slot's earliest tick (or a
    // lower bound of it within the slot); every entry re-files at a
    // strictly lower level (its tick now agrees with the cursor in all
    // bytes at or above `level`), and the earliest ones land on level
    // 0. Walking the FIFO in order keeps same-tick entries in
    // insertion order.
    List &l = _slots[level * kSlotsPerLevel + idx];
    Entry *e = l.head;
    l.head = l.tail = nullptr;
    _occ[level][idx / 64] &= ~(std::uint64_t{1} << (idx % 64));
    const std::uint64_t *w = _occ[level];
    if ((w[0] | w[1] | w[2] | w[3]) == 0)
        _levelMask &= ~(1u << level);
    while (e) {
        Entry *n = e->next;
        place(e);
        e = n;
    }
}

void
EventQueue::rebase()
{
    // Wheel empty, overflow not: jump the cursor straight to the
    // overflow minimum and pull in every overflow entry sharing its
    // top-level epoch. Entries keep FIFO order both in the wheel
    // (placed in list order) and in the residual overflow list, so
    // same-tick insertion order survives the crossing.
    DVFS_ASSERT(_levelMask == 0 && _overflow.head != nullptr,
                "rebase without overflow work");
    _cursor = _overflowMin;
    const Tick epoch = _overflowMin >> kHorizonBits;
    Entry *e = _overflow.head;
    _overflow.head = _overflow.tail = nullptr;
    Tick min = kTickNever;
    while (e) {
        Entry *n = e->next;
        if ((e->when >> kHorizonBits) == epoch) {
            place(e);
        } else {
            append(_overflow, e);
            e->home = kHomeOverflow;
            min = e->when < min ? e->when : min;
        }
        e = n;
    }
    _overflowMin = min;
    DVFS_ASSERT(_levelMask != 0, "rebase produced an empty wheel");
}

EventQueue::List *
EventQueue::advance(Tick limit, Tick *tick_out)
{
    for (;;) {
        if (_levelMask == 0) {
            if (_overflow.head == nullptr || _overflowMin >= limit)
                return nullptr;
            rebase();
            continue;
        }
        const unsigned level =
            static_cast<unsigned>(std::countr_zero(_levelMask));
        const std::uint64_t *w = _occ[level];
        unsigned idx = 0;
        for (unsigned i = 0; i < kOccWords; ++i) {
            if (w[i]) {
                idx = i * 64 +
                      static_cast<unsigned>(std::countr_zero(w[i]));
                break;
            }
        }
        // All occupied slots sit at or after the cursor's position on
        // their level (wheel invariant), and the lowest non-empty
        // level always holds the earliest tick, so the first set bit
        // is the next thing to happen.
        if (level == 0) {
            const Tick t =
                (_cursor & ~Tick{kSlotsPerLevel - 1}) | idx;
            if (t >= limit)
                return nullptr;
            _cursor = t;
            *tick_out = t;
            return &_slots[idx];
        }
        // Jump to the slot's earliest tick, not its start, so the
        // cascade files those entries straight on level 0.
        const Tick earliest = _slotMin[level * kSlotsPerLevel + idx];
        if (earliest >= limit)
            return nullptr;
        _cursor = earliest;
        cascade(level, idx);
    }
}

void
EventQueue::dispatch(Entry *e)
{
    unlink(e);
    e->live = false;
    --_live;
    ++_executed;
    // Invoke in place: the entry is already off the wheel, so the
    // callback may schedule (including same-tick) or cancel freely;
    // it just cannot be recycled until it returns.
    e->cb();
    freeEntry(e);
}

bool
EventQueue::runOne()
{
    DVFS_PROFILE_SCOPE(Kernel);
    Tick t;
    List *slot = advance(kTickNever, &t);
    if (!slot)
        return false;
    DVFS_ASSERT(t >= _now, "event time went backwards");
    _now = t;
    dispatch(slot->head);
    return true;
}

std::uint64_t
EventQueue::runUntil(Tick limit)
{
    DVFS_PROFILE_SCOPE(Kernel);
    std::uint64_t n = 0;
    for (;;) {
        Tick t;
        List *slot = advance(limit, &t);
        if (!slot) {
            if (_live > 0)
                _now = limit;  // events remain at or beyond the limit
            break;
        }
        DVFS_ASSERT(t >= _now, "event time went backwards");
        _now = t;
        // Batch dispatch: every entry here fires at exactly t, and a
        // callback scheduling at the current tick appends to this very
        // slot, so draining the head until the FIFO empties needs no
        // wheel re-scan between entries.
        while (Entry *e = slot->head) {
            dispatch(e);
            ++n;
        }
    }
    return n;
}

std::uint64_t
EventQueue::run()
{
    DVFS_PROFILE_SCOPE(Kernel);
    std::uint64_t n = 0;
    for (;;) {
        Tick t;
        List *slot = advance(kTickNever, &t);
        if (!slot)
            break;
        DVFS_ASSERT(t >= _now, "event time went backwards");
        _now = t;
        while (Entry *e = slot->head) {
            dispatch(e);
            ++n;
        }
    }
    return n;
}

} // namespace dvfs::sim
