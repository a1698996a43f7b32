/**
 * @file
 * The simulator workloads (sim-exact, sim-sampled) and the pinning of
 * their exact references.
 *
 * A run repeats one fixed grid of cells on the sweep pool until the
 * time budget is spent. The grid always holds the golden machine seed
 * (so the three pinned golden digests are re-derived every run) and
 * one alternate machine seed chosen by --seed, whose cells are checked
 * against the per-cell references in refs.txt.
 */

#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>

#include "bench.hh"
#include "exp/experiment.hh"
#include "exp/sweep/fingerprint.hh"
#include "exp/sweep/pool.hh"
#include "pred/registry.hh"
#include "sim/log.hh"
#include "trace/replay.hh"
#include "wl/builder.hh"
#include "wl/suite.hh"

using namespace dvfs;

namespace perfbench {

namespace {

constexpr std::uint64_t kExactGolden = 0xb806f47ff81388e0ULL;
constexpr std::uint64_t kSampledGolden = 0x681d8e2cbc485463ULL;
constexpr std::uint64_t kManagedGolden = 0x71702eac03704a14ULL;

/** Benchmarks of the golden grids: the suite's first four. */
constexpr std::size_t kGoldenBenchmarks = 4;

const std::uint32_t kFreqsMHz[] = {1000, 2000, 3000, 4000};

/** fig10's managed-sampling recipe (the managed golden's config). */
sim::SamplingConfig
managedRecipe()
{
    sim::SamplingConfig cfg;
    cfg.detailWindow = 10 * kTicksPerUs;
    cfg.gapWindow = 980 * kTicksPerUs;
    cfg.maxGapWindow = 7840 * kTicksPerUs;
    cfg.driftThresholdPermille = 200;
    return cfg;
}

/**
 * Reference kinds, one per way a cell is run. "base-sampled" is the
 * fixed-at-highest baseline of a managed sampled cell, run with the
 * managed recipe so within-mode slowdowns cancel sampling bias.
 */
enum class Kind { Exact, Sampled, ManagedExact, ManagedSampled, BaseSampled };

const char *
kindName(Kind k)
{
    switch (k) {
      case Kind::Exact:          return "exact";
      case Kind::Sampled:        return "sampled";
      case Kind::ManagedExact:   return "managed-exact";
      case Kind::ManagedSampled: return "managed-sampled";
      case Kind::BaseSampled:    return "base-sampled";
    }
    return "?";
}

bool
isManaged(Kind k)
{
    return k == Kind::ManagedExact || k == Kind::ManagedSampled;
}

struct CellSpec {
    Kind kind;
    std::size_t bench;    ///< index into the DaCapo suite
    std::uint32_t mhz;    ///< 0 for managed cells
    std::uint64_t seed;   ///< machine seed
};

/** What a workload keeps of one simulated cell. */
struct CellResult {
    double hostMs = 0.0;
    double doneMs = 0.0;  ///< result ready, from the sweep's start
    std::uint64_t fingerprint = 0;
    std::uint64_t totalTime = 0;
    std::uint64_t events = 0;
    uarch::PerfCounters totals;
    std::uint64_t collections = 0;
    std::uint64_t gcTime = 0;
    std::uint64_t epochs = 0;
    std::uint64_t decisions = 0;
    std::uint64_t transitions = 0;
    sim::SampleStats sampling;
    /** DEP+BURST predictions at 2/3/4 GHz (1 GHz fixed cells only). */
    std::vector<Tick> predicted;
    /** The recorded run, kept for the traced run's trace phase. */
    std::shared_ptr<pred::RunRecord> record;
};

const pred::Predictor &
depBurst()
{
    static const auto p = pred::PredictorRegistry::instance().make(
        "DEP", {pred::BaseEstimator::Crit, true});
    return *p;
}

CellResult
runCell(const CellSpec &c, const std::vector<wl::WorkloadParams> &suite,
        bool keep_record)
{
    exp::RunOptions ro;
    ro.seed = c.seed;
    if (c.kind == Kind::Sampled)
        ro.mode = exp::SimMode::Sampled;
    if (c.kind == Kind::ManagedSampled || c.kind == Kind::BaseSampled) {
        ro.mode = exp::SimMode::Sampled;
        ro.sampling = managedRecipe();
    }
    CellResult r;
    const std::int64_t t0 = nowNs();
    if (isManaged(c.kind)) {
        auto out = exp::runManaged(suite[c.bench], mgr::ManagerConfig{},
                                   power::VfTable::haswell(), ro);
        r.hostMs = static_cast<double>(nowNs() - t0) / 1e6;
        r.fingerprint = exp::sweep::fingerprintRun(out);
        r.totalTime = out.totalTime;
        r.collections = out.collections;
        r.decisions = out.decisions.size();
        r.transitions = out.transitions;
        r.sampling = out.sampling;
        return r;
    }
    auto out = exp::runFixed(suite[c.bench], Frequency::mhz(c.mhz), ro);
    r.hostMs = static_cast<double>(nowNs() - t0) / 1e6;
    r.fingerprint = exp::sweep::fingerprintRun(out);
    r.totalTime = out.totalTime;
    r.events = out.events;
    r.totals = out.totals;
    r.collections = out.collections;
    r.gcTime = out.gcTime;
    r.epochs = out.record.epochs.size();
    r.sampling = out.sampling;
    if (c.mhz == 1000 && c.kind != Kind::BaseSampled) {
        for (std::uint32_t t : {2000u, 3000u, 4000u})
            r.predicted.push_back(
                depBurst().predict(out.record, Frequency::mhz(t)));
        if (keep_record)
            r.record =
                std::make_shared<pred::RunRecord>(std::move(out.record));
    }
    return r;
}

/** The cells of one sweep of @p workload, in a fixed order. */
std::vector<CellSpec>
gridFor(bool sampled, std::uint64_t alt_seed, std::size_t benchmarks)
{
    std::vector<CellSpec> cells;
    for (std::uint64_t seed : {goldenMachineSeed(), alt_seed}) {
        for (std::size_t b = 0; b < benchmarks; ++b)
            for (std::uint32_t mhz : kFreqsMHz)
                cells.push_back(
                    {sampled ? Kind::Sampled : Kind::Exact, b, mhz, seed});
        if (!sampled)
            continue;
        for (std::size_t b = 0; b < benchmarks; ++b)
            cells.push_back({Kind::ManagedSampled, b, 0, seed});
        for (std::size_t b = 0; b < benchmarks; ++b)
            cells.push_back({Kind::BaseSampled, b, 4000, seed});
    }
    return cells;
}

/** Fold the cells of one golden grid in SweepSpec order. */
std::uint64_t
goldenDigest(const std::vector<CellSpec> &cells,
             const std::vector<CellResult> &res, Kind kind)
{
    exp::sweep::Fnv1a h;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellSpec &c = cells[i];
        if (c.kind == kind && c.seed == goldenMachineSeed() &&
            c.bench < kGoldenBenchmarks)
            h.mix(res[i].fingerprint);
    }
    return h.digest();
}

int
runSim(const Options &o, bool sampled)
{
    Tracer tracer(o.trace);
    Tracer untraced(false);
    const auto suite = wl::dacapoSuite();
    const std::uint64_t alt = alternateMachineSeed(o.seed);

    // The benchmark's own references, loaded outside the timed set-up.
    const Refs refs = Refs::load(o.refsPath);

    const std::vector<CellSpec> cells = gridFor(sampled, alt, suite.size());

    // ---- Set-up, repeated: build the machine + workload of every
    // cell of one sweep, as runFixed/runManaged do. ----
    std::vector<double> setup_s;
    for (unsigned rep = 0; rep < 96; ++rep) {
        const CpuPin pin(rep);
        Scope setup(tracer, "setup", 0, rep);
        const std::int64_t t0 = nowNs();
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const CellSpec &c = cells[i];
            Scope s(tracer, "buildBenchmark", setup.id(), i);
            os::SystemConfig cfg = wl::defaultSystemConfig(
                isManaged(c.kind) ? power::VfTable::haswell().highest()
                                  : Frequency::mhz(c.mhz));
            cfg.seed = c.seed;
            auto inst = wl::buildBenchmark(suite[c.bench], cfg);
        }
        setup_s.push_back(static_cast<double>(nowNs() - t0) / 1e9);
    }

    const unsigned width = o.width;

    std::vector<double> sweep_wall_s, sweep_busy_ms, sweep_fixed_busy_ms;
    std::vector<double> cell_ms, cell_done_ms;
    std::vector<double> sweep_traced;
    std::vector<CellResult> first;
    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> problems;

    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(o.seconds * 1e9);
    for (std::size_t sweep = 0; sweep == 0 || nowNs() < deadline;
         ++sweep) {
        // Traced runs alternate untraced and traced sweeps so the
        // tracing overhead is measured against the same process.
        const bool traced_sweep = o.trace && sweep % 2 == 1;
        Tracer &t = traced_sweep ? tracer : untraced;
        const bool keep = o.trace && sweep == 0;
        std::vector<CellResult> res;
        const std::int64_t t0 = nowNs();
        {
            Scope sp(t, "sweepMap", 0, sweep);
            res = exp::sweep::sweepMap<CellResult>(
                cells.size(), width, [&](std::size_t i) {
                    Scope cs(t,
                             isManaged(cells[i].kind) ? "runManaged"
                                                      : "runFixed",
                             sp.id(), i);
                    CellResult r = runCell(cells[i], suite, keep);
                    r.doneMs = static_cast<double>(nowNs() - t0) / 1e6;
                    return r;
                });
        }
        const double wall = static_cast<double>(nowNs() - t0) / 1e9;
        sweep_wall_s.push_back(wall);
        sweep_traced.push_back(traced_sweep ? 1.0 : 0.0);
        double busy = 0.0, fixed_busy = 0.0;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const CellSpec &c = cells[i];
            const CellResult &r = res[i];
            busy += r.hostMs;
            if (!isManaged(c.kind))
                fixed_busy += r.hostMs;
            cell_ms.push_back(r.hostMs);
            cell_done_ms.push_back(r.doneMs);
            ++attempted;
            const RefCell *ref = refs.find(kindName(c.kind),
                                           suite[c.bench].name, c.mhz,
                                           c.seed);
            if (!ref || ref->fingerprint != r.fingerprint ||
                ref->totalTime != r.totalTime) {
                ++failed;
                problems.push_back(std::string(kindName(c.kind)) + " " +
                                   suite[c.bench].name + " " +
                                   std::to_string(c.mhz) + " " +
                                   std::to_string(c.seed) +
                                   (ref ? " mismatch" : " unpinned"));
            }
        }
        sweep_busy_ms.push_back(busy);
        sweep_fixed_busy_ms.push_back(fixed_busy);
        for (auto [kind, want] :
             sampled ? std::vector<std::pair<Kind, std::uint64_t>>{
                           {Kind::Sampled, kSampledGolden},
                           {Kind::ManagedSampled, kManagedGolden}}
                     : std::vector<std::pair<Kind, std::uint64_t>>{
                           {Kind::Exact, kExactGolden}}) {
            ++attempted;
            if (goldenDigest(cells, res, kind) != want) {
                ++failed;
                problems.push_back(std::string("golden ") +
                                   kindName(kind) + " digest mismatch");
            }
        }
        if (sweep == 0)
            first = std::move(res);
    }

    // ---- Accuracy, from the first sweep (every sweep is identical,
    // which the fingerprint checks above enforce). ----
    std::vector<double> depburst_err, sampling_err;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellSpec &c = cells[i];
        const CellResult &r = first[i];
        const std::string &name = suite[c.bench].name;
        auto exact = [&](Kind k, std::uint32_t mhz) {
            const RefCell *ref = refs.find(kindName(k), name, mhz, c.seed);
            return ref ? static_cast<double>(ref->totalTime) : NAN;
        };
        for (std::size_t k = 0; k < r.predicted.size(); ++k) {
            const double actual = exact(Kind::Exact, kFreqsMHz[k + 1]);
            depburst_err.push_back(
                std::fabs(static_cast<double>(r.predicted[k]) - actual) /
                actual * 100.0);
        }
        if (c.kind == Kind::Sampled) {
            const double e = exact(Kind::Exact, c.mhz);
            sampling_err.push_back(
                std::fabs(static_cast<double>(r.totalTime) - e) / e *
                100.0);
        } else if (c.kind == Kind::ManagedSampled) {
            // Within-mode achieved slowdown: managed over fixed at the
            // highest point, each side in its own mode.
            std::size_t base = 0;
            while (!(cells[base].kind == Kind::BaseSampled &&
                     cells[base].bench == c.bench &&
                     cells[base].seed == c.seed))
                ++base;
            const double s_sampled =
                static_cast<double>(r.totalTime) /
                static_cast<double>(first[base].totalTime);
            const double s_exact =
                exact(Kind::ManagedExact, 0) / exact(Kind::Exact, 4000);
            sampling_err.push_back(std::fabs(s_sampled - s_exact) /
                                   s_exact * 100.0);
        }
    }

    // ---- Per-layer counts of one sweep. The simulator counts come
    // from the fixed cells only (runManaged reports none), so their
    // host time is kept apart as sweep_fixed_busy_ms. ----
    SimCounts counts;
    sim::SampleStats samp;
    double decisions = 0, transitions = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellResult &r = first[i];
        samp.accumulate(r.sampling);
        decisions += static_cast<double>(r.decisions);
        transitions += static_cast<double>(r.transitions);
        if (!isManaged(cells[i].kind))
            counts.add(r.totals, r.events, r.epochs, r.collections,
                       r.gcTime, r.totalTime);
    }
    Json counts_json = counts.json();
    counts_json.num("decisions", decisions)
        .num("transitions", transitions)
        .num("detail_ticks", static_cast<double>(samp.detailTicks))
        .num("ff_ticks", static_cast<double>(samp.ffTicks))
        .num("detail_actions", static_cast<double>(samp.detailActions))
        .num("ff_actions", static_cast<double>(samp.ffActions))
        .num("ff_fallbacks", static_cast<double>(samp.ffFallbacks))
        .num("forced_windows", static_cast<double>(samp.forcedWindows));

    Json out;
    out.str("family", "sim")
        .num("width", width)
        .arr("setup_s", setup_s)
        .arr("sweep_wall_s", sweep_wall_s)
        .arr("sweep_busy_ms", sweep_busy_ms)
        .arr("sweep_fixed_busy_ms", sweep_fixed_busy_ms)
        .arr("sweep_traced", sweep_traced)
        .num("sweep_cells", static_cast<double>(cells.size()))
        .arr("cell_ms", cell_ms)
        .arr("cell_done_ms", cell_done_ms)
        .arr("depburst_err_pct", depburst_err)
        .arr("sampling_err_pct", sampling_err)
        .raw("counts", counts_json.done());

    // ---- Traced run only: the trace layer on the kept base records,
    // and unit costs of the layers on the microbenches' calls. ----
    if (o.trace) {
        const trace::ReplayEngine engine;
        std::vector<trace::ReplayTarget> targets;
        for (std::uint32_t mhz : {2000u, 3000u, 4000u})
            targets.push_back({Frequency::mhz(mhz), 0});
        TraceLayer tl;
        std::vector<RecordedTrace> recorded;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const CellResult &r = first[i];
            if (!r.record)
                continue;
            recorded.push_back({suite[cells[i].bench].name, cells[i].mhz,
                                tl.encode(tracer, *r.record,
                                          {suite[cells[i].bench].name,
                                           cells[i].seed},
                                          i)});
            const auto &image = recorded.back().image;
            // Replay must reproduce the live DEP+BURST predictions.
            std::size_t k = 0;
            for (const auto &cell :
                 tl.decodeAndReplay(tracer, engine, image, targets, i)) {
                if (cell.predictor != depBurst().name())
                    continue;
                ++attempted;
                if (cell.predicted != r.predicted[k++]) {
                    ++failed;
                    problems.push_back("replayed DEP+BURST differs from "
                                       "live on cell " +
                                       std::to_string(i));
                }
            }
        }
        out.raw("trace_phase", tl.json())
            .raw("serve_inproc", inProcessServeJson(tracer, recorded, o.seed))
            .raw("unit_costs", unitCostsJson())
            .raw("spans", spansJson(tracer.take()));
    }

    for (const auto &p : problems)
        std::cerr << "perfbench: " << p << "\n";
    out.num("attempted", static_cast<double>(attempted))
        .num("failed", static_cast<double>(failed))
        .num("peak_rss_mb", selfPeakRssMb());
    writeFile(o.outPath, out.done());
    return 0;
}

} // namespace

int
runSimExact(const Options &o)
{
    return runSim(o, false);
}

int
runSimSampled(const Options &o)
{
    return runSim(o, true);
}

int
pinReferences(const Options &o)
{
    const auto suite = wl::dacapoSuite();
    std::vector<CellSpec> cells;
    for (std::uint64_t seed : pinnedMachineSeeds()) {
        for (std::size_t b = 0; b < suite.size(); ++b) {
            for (std::uint32_t mhz : kFreqsMHz) {
                cells.push_back({Kind::Exact, b, mhz, seed});
                cells.push_back({Kind::Sampled, b, mhz, seed});
            }
            cells.push_back({Kind::ManagedExact, b, 0, seed});
            cells.push_back({Kind::ManagedSampled, b, 0, seed});
            cells.push_back({Kind::BaseSampled, b, 4000, seed});
        }
    }
    auto res = exp::sweep::sweepMap<CellResult>(
        cells.size(), o.width,
        [&](std::size_t i) { return runCell(cells[i], suite, false); });

    struct Golden { Kind kind; std::uint64_t want; };
    for (const Golden &g : {Golden{Kind::Exact, kExactGolden},
                            Golden{Kind::Sampled, kSampledGolden},
                            Golden{Kind::ManagedSampled, kManagedGolden}}) {
        if (goldenDigest(cells, res, g.kind) != g.want)
            fatal("perfbench pin: %s golden digest does not reproduce",
                  kindName(g.kind));
    }
    Refs refs;
    for (std::size_t i = 0; i < cells.size(); ++i)
        refs.add(kindName(cells[i].kind), suite[cells[i].bench].name,
                 cells[i].mhz, cells[i].seed,
                 {res[i].totalTime, res[i].fingerprint});
    writeFile(o.refsPath, refs.text());
    std::cout << "perfbench pin: " << cells.size()
              << " cells pinned; goldens reproduced\n";
    return 0;
}

} // namespace perfbench
