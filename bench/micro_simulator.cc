/**
 * @file
 * Microbenchmarks (google-benchmark) for the simulator substrate:
 * event-queue throughput, DRAM/cache model cost, and whole-benchmark
 * simulation rate (the "ablation" data for DESIGN.md's atomic-cluster
 * issue decision: how much wall time one simulated run costs).
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "exp/experiment.hh"
#include "exp/sweep/fingerprint.hh"
#include "exp/sweep/sweep.hh"
#include "pred/predictors.hh"
#include "pred/record.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "uarch/cache.hh"
#include "uarch/core.hh"
#include "uarch/dram.hh"
#include "uarch/fastpath.hh"
#include "wl/builder.hh"

using namespace dvfs;

/**
 * Bulk schedule-then-drain of @p n events. One queue serves every
 * iteration, so after the first its pool holds n entries and the loop
 * times the event kernel, not entry allocation and first-touch faults.
 */
static void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    const int n = static_cast<int>(state.range(0));
    sim::EventQueue eq;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        const Tick base = eq.now();
        for (int i = 0; i < n; ++i)
            eq.schedule(base + static_cast<Tick>((i * 7919) % 100000 + 1),
                        [&sink] { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(100000);

namespace {

/** A live event that reschedules itself from a fixed delta table. */
struct SteadyTimer {
    sim::EventQueue *eq;
    const std::vector<Tick> *deltas;
    std::size_t *cursor;

    void
    operator()() const
    {
        const Tick d = (*deltas)[(*cursor)++ & (deltas->size() - 1)];
        eq->schedule(eq->now() + d, *this);
    }
};

} // namespace

/**
 * The simulator's steady state: a fixed population of live events,
 * each rescheduling itself 1 ns to 20 us ahead in femtosecond ticks.
 * Arg(8) is the simulator's real size (at most 8 pending, see
 * tests/test_event_traffic.cc); Arg(64) a deeper heap. One runOne()
 * per iteration, as os::System drives it.
 */
static void
BM_EventQueueSteadyState(benchmark::State &state)
{
    const auto live = static_cast<unsigned>(state.range(0));
    std::vector<Tick> deltas(4096);
    sim::Rng rng(7);
    for (Tick &d : deltas)
        d = rng.nextRange(kTicksPerNs, 20 * kTicksPerUs);
    std::size_t cursor = 0;
    sim::EventQueue eq;
    for (unsigned i = 0; i < live; ++i)
        eq.schedule(deltas[cursor++], SteadyTimer{&eq, &deltas, &cursor});
    for (auto _ : state)
        benchmark::DoNotOptimize(eq.runOne());
    state.SetItemsProcessed(state.iterations());
    state.SetLabel("items = events");
}
BENCHMARK(BM_EventQueueSteadyState)->Arg(8)->Arg(64);

/**
 * avrora's 1 GHz sampled run (~67k epochs, the most sync-bound cell
 * of the sampled sweep), simulated once per process, outside every
 * timed loop.
 */
static const exp::FixedRunOutput &
avroraSampled()
{
    static const exp::FixedRunOutput out = [] {
        exp::RunOptions opts;
        opts.mode = exp::SimMode::Sampled;
        return exp::runFixed(wl::benchmarkByName("avrora"),
                             Frequency::ghz(1.0), opts);
    }();
    return out;
}

/** The replay digest over avrora's 1 GHz sampled record. */
static void
BM_FingerprintRun(benchmark::State &state)
{
    const exp::FixedRunOutput &out = avroraSampled();
    for (auto _ : state)
        benchmark::DoNotOptimize(exp::sweep::fingerprintRun(out));
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(out.record.epochs.size()));
    state.SetLabel("items = epochs");
}
BENCHMARK(BM_FingerprintRun)->Unit(benchmark::kMillisecond);

/**
 * Epoch close at a sync boundary: a machine with 6 application
 * threads on 4 cores, stopped mid-run, closes one epoch per
 * iteration. The recorder is replaced (untimed) every Arg epochs:
 * 4096 keeps the record in cache; 65536, avrora's epochs per sampled
 * cell, also pays for first touches of fresh record memory.
 */
static void
BM_CloseEpoch(benchmark::State &state)
{
    wl::BenchInstance inst =
        wl::buildBenchmark(wl::syntheticSmall(6, 1000),
                           wl::defaultSystemConfig(Frequency::ghz(1.0)));
    inst.sys->run(200 * kTicksPerUs);
    auto rec = std::make_unique<pred::RunRecorder>(*inst.sys);
    os::SyncEvent ev{inst.sys->now(), os::SyncEventKind::SchedOut, 0,
                     os::kNoSync};
    const auto per_recorder = static_cast<std::size_t>(state.range(0));
    std::size_t closed = 0;
    for (auto _ : state) {
        if (closed++ % per_recorder == 0) {
            state.PauseTiming();
            rec = std::make_unique<pred::RunRecorder>(*inst.sys);
            state.ResumeTiming();
        }
        ev.tick += 1;
        rec->onSyncEvent(ev, *inst.sys);
    }
    state.SetItemsProcessed(state.iterations());
    state.SetLabel("items = epochs, " +
                   std::to_string(inst.sys->scheduler().busyCores()) +
                   " of 4 cores busy");
}
BENCHMARK(BM_CloseEpoch)->Arg(4096)->Arg(65536);

/**
 * DEP+BURST over avrora's sampled record at 4 GHz: Arg(0) is one
 * 50 us manager quantum from mid-run, Arg(1) the whole record.
 */
static void
BM_PredictEpochRange(benchmark::State &state)
{
    const std::vector<pred::Epoch> &epochs = avroraSampled().record.epochs;
    std::size_t first = 0, last = epochs.size();
    if (state.range(0) == 0) {
        const Tick from = epochs[epochs.size() / 2].start;
        first = epochs.size() / 2;
        last = first;
        while (last < epochs.size() &&
               epochs[last].end <= from + 50 * kTicksPerUs)
            ++last;
    }
    const pred::DepPredictor dep({pred::BaseEstimator::Crit, true}, true);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            dep.predictEpochRange(epochs, first, last, 0.25));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(last - first));
    state.SetLabel("items = epochs");
}
BENCHMARK(BM_PredictEpochRange)->Arg(0)->Arg(1);

/**
 * Fast-path charge of one miss cluster from a fitted era (avrora's
 * single-load shape): the per-action cost of a sampled gap.
 */
static void
BM_ChargeCluster(benchmark::State &state)
{
    uarch::FastPathModel model(4);
    uarch::MissClusterSpec full;
    full.chains = {{0x1000}};
    full.overlapInstructions = 200;
    full.shapeHint = 1;
    for (std::uint64_t i = 0; i < 13; ++i) {
        uarch::PerfCounters d;
        d.computeTime = 200'000 + 7'919 * i;
        d.trueMemTime = 31'337 * (i % 3);
        d.critNonscaling = d.trueMemTime;
        d.leadingNonscaling = d.trueMemTime;
        d.stallNonscaling = d.trueMemTime / 2;
        d.l1Hits = i % 2;
        d.l2Hits = (i + 1) % 2;
        d.dramLoads = i % 5 == 0;
        model.observeCluster(full, 4,
                             d.computeTime + d.trueMemTime + 1'234 * i, d);
    }
    model.age();
    uarch::MissClusterSpec lite;
    lite.overlapInstructions = full.overlapInstructions;
    lite.shapeHint = full.shapeHint;
    lite.liteChains = 1;
    lite.liteChainDepth = 1;
    uarch::PerfCounters pc;
    Tick elapsed = 0, total = 0;
    for (auto _ : state) {
        model.chargeCluster(lite, 4, elapsed, pc);
        total += elapsed;
    }
    benchmark::DoNotOptimize(total);
    benchmark::DoNotOptimize(pc);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChargeCluster);

static void
BM_DramRandomReads(benchmark::State &state)
{
    uarch::Dram dram;
    sim::Rng rng(1);
    Tick t = 0;
    for (auto _ : state) {
        t += 100000;
        benchmark::DoNotOptimize(
            dram.read(rng.nextBounded(1ULL << 30) & ~63ULL, t));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramRandomReads);

static void
BM_CacheHierarchyLoad(benchmark::State &state)
{
    uarch::Dram dram;
    uarch::FreqDomain uncore("uncore", Frequency::mhz(1500));
    uarch::CacheHierarchy mem(4, uarch::HierarchyConfig{}, dram, uncore);
    sim::Rng rng(2);
    Tick t = 0;
    // A mix of hot (small region) and cold accesses.
    for (auto _ : state) {
        t += 1000;
        std::uint64_t addr = rng.nextBool(0.7)
                                 ? rng.nextBounded(64 * 1024)
                                 : rng.nextBounded(1ULL << 28);
        benchmark::DoNotOptimize(
            mem.load(0, addr & ~63ULL, t, Frequency::ghz(2.0)));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheHierarchyLoad);

/**
 * Store path unit cost: zero-initialisation-style 64-line bursts from
 * a bump pointer through CoreModel::executeStoreBurst (tag walk, write
 * port, SQ backpressure). The pointer sweeps a 256 MB region, far past
 * the L3, so lines miss on chip as nursery zeroing does.
 */
static void
BM_StoreBurst(benchmark::State &state)
{
    uarch::Dram dram;
    uarch::FreqDomain uncore("uncore", Frequency::mhz(1500));
    uarch::FreqDomain clock("core", Frequency::ghz(2.0));
    uarch::CacheHierarchy mem(4, uarch::HierarchyConfig{}, dram, uncore);
    uarch::CoreModel core(0, uarch::CoreConfig{}, mem, clock);
    uarch::PerfCounters pc;
    constexpr std::uint64_t kBase = 0x1'0000'0000ULL;
    constexpr std::uint64_t kSpan = 256ULL << 20;
    uarch::StoreBurstSpec spec;
    spec.lines = 64;
    std::uint64_t cursor = 0;
    Tick t = 0;
    for (auto _ : state) {
        spec.baseAddr = kBase + cursor;
        cursor = (cursor + spec.lines * 64) % kSpan;
        t = core.executeStoreBurst(spec, t, pc);
    }
    benchmark::DoNotOptimize(t);
    state.SetItemsProcessed(state.iterations() * spec.lines);
    state.SetLabel("items = stored lines");
}
BENCHMARK(BM_StoreBurst);

/** Simulation rate: events per wall second for a full benchmark. */
static void
BM_FullRunSynthetic(benchmark::State &state)
{
    auto params = wl::syntheticSmall(4, 150);
    std::uint64_t events = 0;
    for (auto _ : state) {
        auto out = exp::runFixed(params, Frequency::ghz(2.0));
        events += out.events;
        benchmark::DoNotOptimize(out.totalTime);
    }
    state.SetItemsProcessed(static_cast<int64_t>(events));
    state.SetLabel("items = simulated events");
}
BENCHMARK(BM_FullRunSynthetic);

static void
BM_FullRunDacapo(benchmark::State &state)
{
    auto params = wl::benchmarkByName("pmd.scale");
    std::uint64_t events = 0;
    for (auto _ : state) {
        auto out = exp::runFixed(params, Frequency::ghz(2.0));
        events += out.events;
        benchmark::DoNotOptimize(out.totalTime);
    }
    state.SetItemsProcessed(static_cast<int64_t>(events));
    state.SetLabel("one full pmd.scale ground-truth run per iteration");
}
BENCHMARK(BM_FullRunDacapo);

/** Same run under interval sampling: the fast-path speedup, isolated. */
static void
BM_FullRunDacapoSampled(benchmark::State &state)
{
    auto params = wl::benchmarkByName("pmd.scale");
    exp::RunOptions opts;
    opts.mode = exp::SimMode::Sampled;
    std::uint64_t events = 0;
    for (auto _ : state) {
        auto out = exp::runFixed(params, Frequency::ghz(2.0), opts);
        events += out.events;
        benchmark::DoNotOptimize(out.totalTime);
    }
    state.SetItemsProcessed(static_cast<int64_t>(events));
    state.SetLabel("one sampled pmd.scale run per iteration");
}
BENCHMARK(BM_FullRunDacapoSampled);

/** Sweep-engine overhead: a grid of tiny synthetic runs per worker count. */
static void
BM_SweepSynthetic(benchmark::State &state)
{
    const auto workers = static_cast<unsigned>(state.range(0));
    exp::sweep::SweepSpec spec;
    spec.workloads = {wl::syntheticSmall(2, 40)};
    spec.frequencies = {Frequency::ghz(1.0), Frequency::ghz(2.0),
                        Frequency::ghz(3.0), Frequency::ghz(4.0)};
    spec.seeds = exp::sweep::SweepSpec::replicateSeeds(42, 4);

    exp::sweep::SweepRunner::Options ro;
    ro.workers = workers;
    for (auto _ : state) {
        auto res = exp::sweep::SweepRunner(spec, ro).run();
        benchmark::DoNotOptimize(res.cells.front().totalTime);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(spec.cellCount()));
    state.SetLabel("items = sweep cells");
}
BENCHMARK(BM_SweepSynthetic)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
