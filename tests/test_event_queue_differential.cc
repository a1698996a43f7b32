/**
 * @file
 * Differential and edge-case tests for the event kernel.
 *
 * The indexed heap (EventQueue) must be observationally identical to
 * ReferenceEventQueue, a lazily-cancelling std::priority_queue kept as
 * an executable specification of the dispatch-order contract:
 * earliest tick first, insertion order within a tick. A seeded random
 * op stream — schedule, cancel, same-tick reschedule from inside
 * callbacks, partial runUntil — is driven through both queues and the
 * full observable trace (firing order, firing ticks, cancel results)
 * must match bit for bit.
 *
 * A second stream has the simulator's shape: a few dozen live
 * events that each reschedule themselves 1 ns to 20 us ahead at
 * femtosecond ticks, with same-tick bursts and cancel-and-rearm.
 *
 * The edge-case tests pin down what the random streams are unlikely
 * to hit deterministically: scheduling at the current tick, ticks at
 * and beyond 2^48 and at every byte boundary below it, cancels after
 * long jumps, a runUntil limit far short of the only pending event,
 * pool reuse under a million schedule/cancel cycles, and cancels of
 * the heap's root, last and interior nodes, from outside and from
 * inside a callback.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/reference_event_queue.hh"
#include "sim/rng.hh"

using namespace dvfs;
using sim::EventId;

namespace {

/** One observable step: an event firing or a cancel result. */
using TraceStep = std::pair<std::uint64_t, Tick>;

/** Token space for cancel observations, disjoint from event tokens. */
constexpr std::uint64_t kCancelHit = 0x8000000000000000ull;
constexpr std::uint64_t kCancelMiss = 0x4000000000000000ull;

/**
 * Drive a seeded op stream through @p Queue and return the trace.
 *
 * All randomness is drawn *outside* the callbacks, so both queue
 * implementations see exactly the same op stream; any divergence in
 * the trace is a divergence in queue behaviour.
 */
template <typename Queue>
std::vector<TraceStep>
runScript(std::uint32_t seed, unsigned ops)
{
    Queue q;
    std::vector<TraceStep> trace;
    std::vector<EventId> ids;  // every id ever returned, stale or not
    std::uint64_t next_tok = 1;
    std::uint64_t child_tok = 1'000'000;

    sim::Rng rng(seed);
    for (unsigned i = 0; i < ops; ++i) {
        const std::uint32_t r = static_cast<std::uint32_t>(
            rng.nextBounded(100));
        if (r < 55 || ids.empty()) {
            // Schedule. A quarter of events land on an already-used
            // tick bucket (coarse quantization) to force same-tick
            // FIFO ordering; some spawn a same-tick child when they
            // fire, re-entering the live dispatch batch.
            Tick delta = rng.nextBool(0.25)
                             ? rng.nextBounded(8) * 1000
                             : rng.nextBounded(300'000);
            const bool spawn_same_tick = rng.nextBool(0.15);
            const bool spawn_later = rng.nextBool(0.15);
            const std::uint64_t tok = next_tok++;
            Queue *qp = &q;
            auto *tp = &trace;
            auto *ct = &child_tok;
            ids.push_back(q.schedule(
                q.now() + delta,
                [qp, tp, ct, tok, spawn_same_tick, spawn_later] {
                    tp->emplace_back(tok, qp->now());
                    if (spawn_same_tick) {
                        const std::uint64_t c = (*ct)++;
                        qp->schedule(qp->now(), [qp, tp, c] {
                            tp->emplace_back(c, qp->now());
                        });
                    }
                    if (spawn_later) {
                        const std::uint64_t c = (*ct)++;
                        qp->schedule(qp->now() + 777, [qp, tp, c] {
                            tp->emplace_back(c, qp->now());
                        });
                    }
                }));
        } else if (r < 80) {
            // Cancel a random id (possibly stale); the boolean result
            // is part of the observable trace.
            const EventId id =
                ids[static_cast<std::size_t>(rng.nextBounded(ids.size()))];
            trace.emplace_back(q.cancel(id) ? kCancelHit : kCancelMiss,
                               q.now());
        } else {
            q.runUntil(q.now() + rng.nextBounded(500'000));
        }
    }
    q.run();
    return trace;
}

/**
 * Long-horizon stream: deltas from 1 tick to ~2^50 ticks, far past
 * the simulator's range, against the reference.
 */
template <typename Queue>
std::vector<TraceStep>
longHorizonScript(std::uint32_t seed)
{
    Queue q;
    std::vector<TraceStep> trace;
    std::uint64_t tok = 1;
    sim::Rng rng(seed);
    for (unsigned i = 0; i < 300; ++i) {
        // Spread deltas across ~2^50, one power of two at a time.
        const unsigned shift =
            static_cast<unsigned>(rng.nextBounded(50));
        Tick delta = (Tick{1} << shift) + rng.nextBounded(1000);
        const std::uint64_t t = tok++;
        auto *tp = &trace;
        Queue *qp = &q;
        q.schedule(q.now() + delta, [qp, tp, t] {
            tp->emplace_back(t, qp->now());
        });
        if (i % 7 == 0)
            q.runOne();
    }
    q.run();
    return trace;
}

/** Tokens for now() after a runUntil, and pending() at the end. */
constexpr std::uint64_t kNowMark = 0x2000000000000000ull;
constexpr std::uint64_t kPendingMark = 0x1000000000000000ull;

/**
 * Simulator-shaped traffic: @p actors live events, each rescheduling
 * itself on every firing, plus one-shot same-tick bursts.
 *
 * Deltas are femtoseconds between 1 ns and 20 us, a fifth of them
 * exactly 20 us (timeslice-style repeats that collide with each
 * other). Every 8th firing cancels the next actor's pending event and
 * re-arms it at the same tick, which moves it behind any same-tick
 * peers.
 * Deltas come from a table fixed before the run, indexed by actor and
 * firing count, so both queues see the same stream whatever order
 * they fire in.
 */
template <typename Queue>
class SimShapedScript
{
  public:
    SimShapedScript(std::uint32_t seed, unsigned actors)
        : _rng(seed), _ids(actors, sim::kNoEvent), _whens(actors, 0),
          _steps(actors, 0)
    {
        for (unsigned i = 0; i < 4096; ++i) {
            _deltas.push_back(
                _rng.nextBool(0.2)
                    ? 20 * kTicksPerUs
                    : _rng.nextRange(kTicksPerNs, 20 * kTicksPerUs));
        }
    }

    std::vector<TraceStep>
    run(unsigned rounds)
    {
        for (unsigned a = 0; a < _ids.size(); ++a)
            arm(a, _deltas[a]);
        std::uint64_t burst_tok = 1'000'000;
        for (unsigned r = 0; r < rounds; ++r) {
            const std::uint32_t op =
                static_cast<std::uint32_t>(_rng.nextBounded(100));
            if (op < 15) {
                // Same-tick burst: an earlier one-shot, then three at
                // a later shared tick. The limit probe below often
                // stops short of all four.
                const Tick base =
                    _q.now() + _rng.nextRange(Tick{1} << 16, Tick{1} << 34);
                const Tick t = base | 0xC000;
                record(burst_tok++, t - 0x100);
                for (int k = 0; k < 3; ++k)
                    record(burst_tok++, t);
                _q.runUntil((base & ~Tick{0xFFFF}) + 0x100);
                _trace.emplace_back(kNowMark, _q.now());
            } else if (op < 30) {
                // Cancel an actor from outside and re-arm it.
                const unsigned a = static_cast<unsigned>(
                    _rng.nextBounded(_ids.size()));
                _trace.emplace_back(
                    _q.cancel(_ids[a]) ? kCancelHit : kCancelMiss,
                    _q.now());
                arm(a, _rng.nextRange(kTicksPerNs, 20 * kTicksPerUs));
            } else {
                _q.runUntil(_q.now() +
                            _rng.nextRange(1, 30 * kTicksPerUs));
                _trace.emplace_back(kNowMark, _q.now());
            }
        }
        _trace.emplace_back(kPendingMark, _q.pending());
        return std::move(_trace);
    }

  private:
    /** Fires actor @p a; a 16-byte capture, like the simulator's. */
    struct Fire {
        SimShapedScript *s;
        unsigned a;
        void operator()() const { s->fire(a); }
    };

    void
    arm(unsigned a, Tick delta)
    {
        _whens[a] = _q.now() + delta;
        _ids[a] = _q.schedule(_whens[a], Fire{this, a});
    }

    void
    record(std::uint64_t tok, Tick when)
    {
        _q.schedule(when, [this, tok] {
            _trace.emplace_back(tok, _q.now());
        });
    }

    void
    fire(unsigned a)
    {
        _trace.emplace_back(a + 1, _q.now());
        const std::uint32_t step = _steps[a]++;
        arm(a, _deltas[(a * 7919u + step) % _deltas.size()]);
        if (step % 8 == 7) {
            const unsigned b = (a + 1) % _ids.size();
            const bool hit = _q.cancel(_ids[b]);
            _trace.emplace_back(hit ? kCancelHit : kCancelMiss, _q.now());
            if (hit)
                _ids[b] = _q.schedule(_whens[b], Fire{this, b});
        }
    }

    sim::Rng _rng;
    Queue _q;
    std::vector<TraceStep> _trace;
    std::vector<Tick> _deltas;
    std::vector<EventId> _ids;
    std::vector<Tick> _whens;
    std::vector<std::uint32_t> _steps;
};

} // namespace

TEST(EventQueueDifferential, WheelMatchesReferenceHeap)
{
    for (std::uint32_t seed : {1u, 2u, 3u, 77u, 1234u}) {
        auto queue = runScript<sim::EventQueue>(seed, 2000);
        auto heap = runScript<sim::ReferenceEventQueue>(seed, 2000);
        ASSERT_EQ(queue.size(), heap.size()) << "seed " << seed;
        for (std::size_t i = 0; i < queue.size(); ++i) {
            ASSERT_EQ(queue[i], heap[i])
                << "seed " << seed << " step " << i;
        }
    }
}

TEST(EventQueueDifferential, LongHorizonStreamMatches)
{
    for (std::uint32_t seed : {5u, 6u, 7u}) {
        auto queue = longHorizonScript<sim::EventQueue>(seed);
        auto heap = longHorizonScript<sim::ReferenceEventQueue>(seed);
        EXPECT_EQ(queue, heap) << "seed " << seed;
    }
}

TEST(EventQueueDifferential, SimulatorShapedTrafficMatches)
{
    for (unsigned actors : {4u, 8u, 23u, 64u}) {
        for (std::uint32_t seed : {11u, 12u}) {
            auto queue =
                SimShapedScript<sim::EventQueue>(seed, actors).run(3000);
            auto heap = SimShapedScript<sim::ReferenceEventQueue>(
                            seed, actors)
                            .run(3000);
            ASSERT_EQ(queue.size(), heap.size())
                << "actors " << actors << " seed " << seed;
            for (std::size_t i = 0; i < queue.size(); ++i) {
                ASSERT_EQ(queue[i], heap[i]) << "actors " << actors
                                             << " seed " << seed
                                             << " step " << i;
            }
        }
    }
}

// The EventQueueWheel cases were written against the timing wheel
// that preceded the heap, at its slot, level and horizon boundaries.
// They use only the public API and stay as edge cases.

TEST(EventQueueWheel, LimitBeforeUpperSlotsEarliestEntry)
{
    sim::EventQueue q;
    std::vector<int> order;
    // One event far ahead (5<<24 + 0x123456).
    const Tick slot_start = Tick{5} << 24;
    const Tick far = slot_start + 0x123456;
    q.schedule(far, [&] { order.push_back(3); });

    // The limit lies well ahead of now but before the event:
    // nothing fires and time stops at the limit.
    const Tick limit = slot_start + 0x1000;
    EXPECT_EQ(q.runUntil(limit), 0u);
    EXPECT_EQ(q.now(), limit);
    EXPECT_TRUE(order.empty());

    // Events at and just after the limit still fire before the
    // parked entry, in tick order.
    q.schedule(limit + 1, [&] { order.push_back(2); });
    q.schedule(limit, [&] { order.push_back(1); });
    EXPECT_EQ(q.runUntil(far), 2u);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(q.now(), far);
    EXPECT_EQ(q.run(), 1u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), far);
}

TEST(EventQueueWheel, ScheduleAtCurrentTickFiresInBatch)
{
    sim::EventQueue q;
    std::vector<int> order;
    // Before any dispatch, now() == 0; scheduling at exactly now is
    // legal and fires.
    q.schedule(0, [&] { order.push_back(1); });
    q.schedule(0, [&] {
        order.push_back(2);
        // Same-tick child from inside a callback: runs after every
        // previously inserted tick-0 event, before any later tick.
        q.schedule(q.now(), [&] { order.push_back(3); });
    });
    q.schedule(5, [&] { order.push_back(4); });
    EXPECT_EQ(q.runUntil(10), 4u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(q.now(), 5u);
}

TEST(EventQueueWheel, CancelOverflowAndCascadedEntries)
{
    sim::EventQueue q;
    std::vector<int> fired;

    // Ticks beyond 2^48.
    const Tick far = Tick{1} << 49;
    EventId f1 = q.schedule(far, [&] { fired.push_back(1); });
    EventId f2 = q.schedule(far + 5, [&] { fired.push_back(2); });
    EventId f3 = q.schedule(far + 5, [&] { fired.push_back(3); });
    q.schedule(100, [&] { fired.push_back(0); });
    EXPECT_EQ(q.pending(), 4u);

    // Cancel the earliest far event before anything has run.
    EXPECT_TRUE(q.cancel(f1));
    EXPECT_FALSE(q.cancel(f1));  // already gone
    EXPECT_EQ(q.pending(), 3u);

    // Fire the near event, then jump 2^49 ticks ahead.
    EXPECT_TRUE(q.runOne());
    EXPECT_EQ(fired, std::vector<int>{0});
    EXPECT_TRUE(q.runOne());
    EXPECT_EQ(q.now(), far + 5);
    EXPECT_EQ(fired, (std::vector<int>{0, 2}));
    EXPECT_FALSE(q.cancel(f2));  // already fired

    // runOne dispatches one event, so f3 is still pending at the
    // current tick after the jump; cancel it.
    EXPECT_TRUE(q.cancel(f3));
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.run(), 0u);
}

TEST(EventQueueWheel, CursorCrossesEveryLevel)
{
    sim::EventQueue q;
    std::vector<Tick> fired;
    // Every byte boundary of a 48-bit tick and its neighbours (255,
    // 256, 257, ...).
    std::vector<Tick> ticks;
    for (unsigned level = 0; level < 6; ++level) {
        const Tick base = Tick{1} << (8 * level);
        ticks.push_back(base);
        ticks.push_back(base + 1);
        if (level > 0)
            ticks.push_back(base - 1);
    }
    ticks.push_back((Tick{1} << 48) - 1);
    ticks.push_back(Tick{1} << 48);
    // Insert in reverse so tick order, not insertion order, decides.
    for (auto it = ticks.rbegin(); it != ticks.rend(); ++it) {
        Tick t = *it;
        q.schedule(t, [&fired, &q] { fired.push_back(q.now()); });
    }
    EXPECT_EQ(q.run(), ticks.size());
    std::vector<Tick> expect = ticks;
    std::sort(expect.begin(), expect.end());
    EXPECT_EQ(fired, expect);
}

TEST(EventQueueWheel, SameTickFifoSurvivesCascade)
{
    sim::EventQueue q;
    std::vector<int> order;
    // Two same-tick events far ahead, scheduled before an earlier one:
    // they must keep their insertion order.
    const Tick t = (Tick{3} << 24) + 42;
    q.schedule(t, [&] { order.push_back(1); });
    q.schedule(t, [&] { order.push_back(2); });
    q.schedule(7, [&] { order.push_back(0); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueueWheel, MillionScheduleCancelReusesPool)
{
    sim::EventQueue q;
    // A window of live timers being repeatedly re-armed (the OS
    // timeslice pattern): entry count must stay at the window's
    // high-water mark, not grow with the number of cycles.
    constexpr unsigned kWindow = 32;
    std::vector<EventId> window;
    std::uint64_t fired = 0;
    Tick t = 1;
    for (unsigned i = 0; i < kWindow; ++i)
        window.push_back(q.schedule(t += 10'000, [&] { ++fired; }));
    for (unsigned i = 0; i < 1'000'000; ++i) {
        const std::size_t k = i % kWindow;
        ASSERT_TRUE(q.cancel(window[k]));
        window[k] = q.schedule(t += 10'000, [&] { ++fired; });
    }
    EXPECT_LE(q.entriesAllocated(), kWindow + 1);
    EXPECT_EQ(q.run(), kWindow);
    EXPECT_EQ(fired, kWindow);
}

namespace {

/**
 * Schedule @p n events at a fixed shuffle of distinct ticks, then
 * cancel the one scheduled @p victim-th and run; returns the trace of
 * (token, tick) firings. Each heap position holds one event, so over
 * every @p victim this removes the node at every position: the root,
 * interior nodes, leaves and the last node. Ticks are distinct while
 * @p n is coprime to 37.
 */
template <typename Queue>
std::vector<TraceStep>
cancelOneOf(unsigned n, unsigned victim)
{
    Queue q;
    std::vector<TraceStep> trace;
    std::vector<EventId> ids;
    for (unsigned i = 0; i < n; ++i) {
        const Tick t = 10 + (i * 37u) % n * 100;
        ids.push_back(q.schedule(t, [&trace, &q, i] {
            trace.emplace_back(i, q.now());
        }));
    }
    trace.emplace_back(q.cancel(ids[victim]) ? kCancelHit : kCancelMiss,
                       q.pending());
    q.run();
    return trace;
}

/** Ascending ticks: the last scheduled is the last heap node. */
template <typename Queue>
std::vector<TraceStep>
cancelByRole(unsigned n)
{
    Queue q;
    std::vector<TraceStep> trace;
    std::vector<EventId> ids;
    for (unsigned i = 0; i < n; ++i) {
        ids.push_back(q.schedule(100 * (i + 1), [&trace, &q, i] {
            trace.emplace_back(i, q.now());
        }));
    }
    // The root (earliest), the last node (latest, scheduled last) and
    // an interior node (the second earliest, parent of later nodes).
    for (unsigned k : {0u, n - 1, 1u})
        trace.emplace_back(q.cancel(ids[k]) ? kCancelHit : kCancelMiss,
                           q.pending());
    // Refill past the cancelled root's tick and drain half-way.
    q.schedule(150, [&trace, &q] { trace.emplace_back(9000, q.now()); });
    trace.emplace_back(0, q.runUntil(150 + 100 * (n / 2)));
    q.run();
    return trace;
}

/**
 * A callback cancels siblings: one at its own tick (scheduled behind
 * it), one later, and itself (already fired, so a miss).
 */
template <typename Queue>
std::vector<TraceStep>
callbackCancelsSibling()
{
    Queue q;
    std::vector<TraceStep> trace;
    EventId self = sim::kNoEvent, same = sim::kNoEvent,
            later = sim::kNoEvent;
    auto mark = [&trace, &q](std::uint64_t tok) {
        return [&trace, &q, tok] { trace.emplace_back(tok, q.now()); };
    };
    q.schedule(5, mark(1));
    self = q.schedule(10, [&] {
        trace.emplace_back(2, q.now());
        trace.emplace_back(q.cancel(same) ? kCancelHit : kCancelMiss, 0);
        trace.emplace_back(q.cancel(later) ? kCancelHit : kCancelMiss, 0);
        trace.emplace_back(q.cancel(self) ? kCancelHit : kCancelMiss, 0);
    });
    same = q.schedule(10, mark(3));
    q.schedule(10, mark(4));
    later = q.schedule(20, mark(5));
    q.schedule(20, mark(6));
    q.run();
    trace.emplace_back(kPendingMark, q.pending());
    return trace;
}

/**
 * 1,000 events at one tick, with a cancel of an earlier one after
 * every third schedule and a few earlier/later ticks mixed in.
 */
template <typename Queue>
std::vector<TraceStep>
sameTickWithCancels()
{
    Queue q;
    std::vector<TraceStep> trace;
    std::vector<EventId> ids;
    for (unsigned i = 0; i < 1000; ++i) {
        ids.push_back(q.schedule(500, [&trace, &q, i] {
            trace.emplace_back(i, q.now());
        }));
        if (i % 3 == 2)
            q.cancel(ids[i - 2 + i % 2]);
        if (i % 97 == 0) {
            q.schedule(400 + i % 200, [&trace, &q, i] {
                trace.emplace_back(100000 + i, q.now());
            });
        }
    }
    q.run();
    return trace;
}

} // namespace

TEST(EventQueueHeap, CancelAtEveryPositionMatchesReference)
{
    for (unsigned n : {1u, 2u, 5u, 7u, 21u, 64u}) {
        for (unsigned victim = 0; victim < n; ++victim) {
            EXPECT_EQ(cancelOneOf<sim::EventQueue>(n, victim),
                      cancelOneOf<sim::ReferenceEventQueue>(n, victim))
                << "n " << n << " victim " << victim;
        }
    }
}

TEST(EventQueueHeap, CancelRootLastAndInteriorMatchReference)
{
    for (unsigned n : {3u, 6u, 9u, 40u}) {
        const auto heap = cancelByRole<sim::EventQueue>(n);
        EXPECT_EQ(heap, cancelByRole<sim::ReferenceEventQueue>(n))
            << "n " << n;
        // Three hits, then the refill fires before every survivor.
        ASSERT_GE(heap.size(), 5u);
        EXPECT_EQ(heap[0].first, kCancelHit);
        EXPECT_EQ(heap[1].first, kCancelHit);
        EXPECT_EQ(heap[2].first, kCancelHit);
        EXPECT_EQ(heap[3], TraceStep(9000, 150));
    }
}

TEST(EventQueueHeap, CallbackCancelsSiblingEvent)
{
    const auto heap = callbackCancelsSibling<sim::EventQueue>();
    EXPECT_EQ(heap, callbackCancelsSibling<sim::ReferenceEventQueue>());
    const std::vector<TraceStep> expect = {
        {1, 5},          {2, 10},         {kCancelHit, 0},
        {kCancelHit, 0}, {kCancelMiss, 0}, {4, 10},
        {6, 20},         {kPendingMark, 0}};
    EXPECT_EQ(heap, expect);
}

TEST(EventQueueHeap, ThousandSameTickEventsKeepFifoAcrossCancels)
{
    const auto heap = sameTickWithCancels<sim::EventQueue>();
    EXPECT_EQ(heap, sameTickWithCancels<sim::ReferenceEventQueue>());
    // The tick-500 survivors fire in insertion order: of each three,
    // the one cancelled is i-2 for even i, i-1 for odd i.
    std::vector<std::uint64_t> fired;
    for (const TraceStep &s : heap)
        if (s.first < 100000) {
            EXPECT_EQ(s.second, 500u);
            fired.push_back(s.first);
        }
    std::vector<std::uint64_t> expect;
    for (unsigned i = 0; i < 1000; ++i) {
        const unsigned base = i - i % 3;
        const bool complete = base + 2 < 1000;
        const unsigned gone = base + (base + 2) % 2;
        if (!complete || i != gone)
            expect.push_back(i);
    }
    EXPECT_EQ(fired, expect);
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}
