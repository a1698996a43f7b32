/**
 * @file
 * Microbenchmarks (google-benchmark) for the predictor layer: what the
 * paper's "kernel module" would pay online, per epoch and per quantum.
 *
 * Predictors are constructed through the PredictorRegistry (the same
 * path fig3/ablation/replay use), so these numbers track the code the
 * harnesses actually run.
 */

#include <benchmark/benchmark.h>

#include "exp/experiment.hh"
#include "pred/registry.hh"
#include "trace/reader.hh"
#include "trace/writer.hh"

using namespace dvfs;
using namespace dvfs::pred;

namespace {

/** A reusable mid-size record (built once per process). */
const RunRecord &
sampleRecord()
{
    static RunRecord rec = [] {
        auto params = wl::syntheticSmall(4, 300);
        params.lockProb = 0.4;
        return exp::runFixed(params, Frequency::ghz(1.0)).record;
    }();
    return rec;
}

/** Registry shorthand: family over spec. */
std::unique_ptr<Predictor>
make(const char *family, ModelSpec spec)
{
    return PredictorRegistry::instance().make(family, spec);
}

} // namespace

static void
BM_DepBurstPredict(benchmark::State &state)
{
    const RunRecord &rec = sampleRecord();
    auto p = make("DEP", {BaseEstimator::Crit, true});
    for (auto _ : state)
        benchmark::DoNotOptimize(p->predict(rec, Frequency::ghz(4.0)));
    state.counters["epochs"] =
        static_cast<double>(rec.epochs.size());
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(rec.epochs.size()));
}
BENCHMARK(BM_DepBurstPredict);

static void
BM_DepPerEpochPredict(benchmark::State &state)
{
    const RunRecord &rec = sampleRecord();
    auto p = make("DEP/per-epoch", {BaseEstimator::Crit, true});
    for (auto _ : state)
        benchmark::DoNotOptimize(p->predict(rec, Frequency::ghz(4.0)));
}
BENCHMARK(BM_DepPerEpochPredict);

static void
BM_MCritPredict(benchmark::State &state)
{
    const RunRecord &rec = sampleRecord();
    auto p = make("M+CRIT", {BaseEstimator::Crit, false});
    for (auto _ : state)
        benchmark::DoNotOptimize(p->predict(rec, Frequency::ghz(4.0)));
}
BENCHMARK(BM_MCritPredict);

static void
BM_CoopPredict(benchmark::State &state)
{
    const RunRecord &rec = sampleRecord();
    auto p = make("COOP", {BaseEstimator::Crit, false});
    for (auto _ : state)
        benchmark::DoNotOptimize(p->predict(rec, Frequency::ghz(4.0)));
}
BENCHMARK(BM_CoopPredict);

/** The energy manager's inner loop: one quantum, all 25 points. */
static void
BM_ManagerQuantumSweep(benchmark::State &state)
{
    const RunRecord &rec = sampleRecord();
    // Concrete type on purpose: predictEpochRange is the manager-facing
    // epoch-span API, not part of the Predictor interface.
    DepPredictor p({BaseEstimator::Crit, true}, true);
    auto table = power::VfTable::haswell();
    const std::size_t window = std::min<std::size_t>(32, rec.epochs.size());
    for (auto _ : state) {
        Tick acc = 0;
        for (const auto &pt : table.points()) {
            double ratio = 4000.0 / pt.freq.toMHz();
            acc += p.predictEpochRange(rec.epochs, 0, window, ratio);
        }
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_ManagerQuantumSweep);

/** Trace encode cost for the sample record. */
static void
BM_TraceEncode(benchmark::State &state)
{
    const RunRecord &rec = sampleRecord();
    trace::TraceMeta meta{"micro", 42};
    std::size_t bytes = 0;
    for (auto _ : state) {
        auto image = trace::encodeTrace(rec, meta);
        bytes = image.size();
        benchmark::DoNotOptimize(image.data());
    }
    state.counters["bytes"] = static_cast<double>(bytes);
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(bytes));
}
BENCHMARK(BM_TraceEncode);

/** Trace decode + validate cost (digest check included). */
static void
BM_TraceDecode(benchmark::State &state)
{
    const RunRecord &rec = sampleRecord();
    const auto image = trace::encodeTrace(rec, {"micro", 42});
    for (auto _ : state) {
        auto loaded = trace::decodeTrace(image);
        benchmark::DoNotOptimize(loaded.epochs.data());
    }
    state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(image.size()));
}
BENCHMARK(BM_TraceDecode);

BENCHMARK_MAIN();
