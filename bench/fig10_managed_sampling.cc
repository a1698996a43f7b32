/**
 * @file
 * Managed-sampled accuracy: speedup vs error under the energy manager.
 *
 * This is the repo's "Figure 10" extension: fig9 bounds the sampled
 * fast path's error on fixed-frequency grids; this bench bounds it on
 * *managed* runs, where the energy manager changes frequency mid-run
 * and the fast-path model forks per operating point (DESIGN.md section
 * 11.7). Each (benchmark x seed) cell runs under the manager in both
 * modes through exp::sweep::compareManagedModes, plus fixed-at-highest
 * baselines per mode, and the bench reports
 *
 *  - the managed-grid wall-clock speedup of sampled over exact,
 *  - per-cell managed total-time error and (the headline) achieved-
 *    slowdown error — how far the sampled S = T_managed/T_fixedHighest
 *    lands from the exact one, computed within-mode so systematic time
 *    bias cancels (the quantity fig6 reports),
 *  - sampling provenance: DVFS transitions observed, forced detail
 *    windows, and the adaptive gap-stretch histogram.
 *
 * Error metrics are deterministic — repeats reproduce them
 * bit-for-bit; only wall times move — so CI gates hard on them.
 *
 * Usage: fig10_managed_sampling [--benchmarks=4] [--seeds=1]
 *          [--startup-us=60] [--detail-us=30] [--gap-us=980]
 *          [--max-gap-us=0] [--drift-permille=50]
 *          [--workers=N] [--repeat=1] [--fail-err-pct=X]
 *          [--fail-speedup=X] [--expect-managed-fingerprint=0x...]
 *
 * --fail-err-pct / --fail-speedup gate on mean |achieved-slowdown
 * error| / managed-grid speedup; --expect-managed-fingerprint pins the
 * sampled managed grid digest. --repeat measures N times, reports
 * minimum walls, and fails if any repeat's digest (either mode)
 * deviates.
 */

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "exp/sweep/differential.hh"
#include "exp/table.hh"

using namespace dvfs;

namespace {

/** Gap-stretch histogram as a JSON array, e.g. "[101,85,0]". */
std::string
gapStretchJson(const sim::SampleStats &s)
{
    std::ostringstream os;
    os << "[";
    for (int i = 0; i < sim::SampleStats::kGapStretchBuckets; ++i)
        os << (i ? "," : "") << s.gapStretch[i];
    os << "]";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::FlagSet args("fig10_managed_sampling",
                        "managed sampled-vs-exact error bounds and "
                        "speedup");
    args.add("benchmarks", "N",
             "workloads from the DaCapo suite (default 4)")
        .add("seeds", "N", "replicate seeds per workload (default 1)")
        .addWorkers()
        .addSampling()
        .addRepeat()
        .add("fail-err-pct", "X",
             "fail if mean |achieved-slowdown err| exceeds X percent")
        .add("fail-speedup", "X",
             "fail if managed-grid speedup falls below X")
        .add("expect-managed-fingerprint", "0x...",
             "pin the sampled managed digest");
    args.parse(argc, argv);

    const auto n_bench =
        static_cast<std::size_t>(args.getInt("benchmarks", 4, 1));
    const auto n_seeds =
        static_cast<std::size_t>(args.getInt("seeds", 1, 1));
    const unsigned workers = bench::workersFromArgs(args);
    const auto repeat = static_cast<unsigned>(args.getInt("repeat", 1, 1));
    const double fail_err = args.getDouble("fail-err-pct", 0.0);
    const double fail_speedup = args.getDouble("fail-speedup", 0.0);
    const bool pin_fp = args.has("expect-managed-fingerprint");
    const std::uint64_t want_fp =
        args.getHex("expect-managed-fingerprint", 0);

    const sim::SamplingConfig cfg = bench::samplingFromArgs(args);

    std::vector<wl::WorkloadParams> workloads;
    for (const auto &params : wl::dacapoSuite()) {
        if (workloads.size() >= n_bench)
            break;
        workloads.push_back(params);
    }
    const auto seeds = exp::sweep::SweepSpec::replicateSeeds(42, n_seeds);
    const auto table_vf = power::VfTable::haswell();
    const mgr::ManagerConfig mc;

    std::cout << "fig10_managed_sampling: " << workloads.size()
              << " benchmarks x " << seeds.size() << " seeds under the "
              << "energy manager, detail="
              << cfg.detailWindow / kTicksPerUs
              << "us gap=" << cfg.gapWindow / kTicksPerUs
              << "us max-gap=" << cfg.maxGapWindow / kTicksPerUs
              << "us, workers=" << workers << ", repeat=" << repeat
              << "\n\n";

    exp::sweep::ManagedComparison best;
    bool repeats_ok = true;
    for (unsigned r = 0; r < repeat; ++r) {
        auto cmp = exp::sweep::compareManagedModes(workloads, mc,
                                                   table_vf, cfg, seeds,
                                                   workers);
        if (r == 0) {
            best = std::move(cmp);
            continue;
        }
        if (cmp.exactDigest != best.exactDigest ||
            cmp.sampledDigest != best.sampledDigest) {
            std::cerr << "fig10_managed_sampling: digest drift across "
                         "repeats\n";
            repeats_ok = false;
        }
        best.exactWallSec = std::min(best.exactWallSec, cmp.exactWallSec);
        best.sampledWallSec =
            std::min(best.sampledWallSec, cmp.sampledWallSec);
    }

    const double cov = best.sampleTotals.coverage() * 100.0;
    exp::Table table({"cells", "cov %", "speedup", "time err %",
                      "slowdown err %", "transitions", "forced"});
    table.addRow(
        {std::to_string(best.cells), exp::Table::fmt(cov, 1),
         exp::Table::fmt(best.speedup(), 1),
         exp::Table::fmt(best.meanAbsTimeErrPct, 2) + " / " +
             exp::Table::fmt(best.maxAbsTimeErrPct, 2),
         exp::Table::fmt(best.meanAbsSlowdownErrPct, 2) + " / " +
             exp::Table::fmt(best.maxAbsSlowdownErrPct, 2),
         std::to_string(best.transitions),
         std::to_string(best.sampleTotals.forcedWindows)});
    table.print(std::cout);

    std::cout << "\ngap-stretch histogram (gaps entered at 1x,2x,...):"
              << " " << gapStretchJson(best.sampleTotals) << "\n";

    char fps[80];
    std::snprintf(fps, sizeof(fps),
                  "fingerprints: exact=0x%016llx sampled=0x%016llx\n",
                  static_cast<unsigned long long>(best.exactDigest),
                  static_cast<unsigned long long>(best.sampledDigest));
    std::cout << fps;

    bool failed = !repeats_ok;
    if (fail_err > 0.0 && best.meanAbsSlowdownErrPct > fail_err) {
        std::cerr << "fig10_managed_sampling: mean |achieved-slowdown "
                     "err| " << best.meanAbsSlowdownErrPct
                  << "% exceeds the --fail-err-pct=" << fail_err
                  << " bound\n";
        failed = true;
    }
    if (fail_speedup > 0.0 && best.speedup() < fail_speedup) {
        std::cerr << "fig10_managed_sampling: speedup " << best.speedup()
                  << "x below the --fail-speedup=" << fail_speedup
                  << " bound\n";
        failed = true;
    }
    if (pin_fp) {
        if (best.sampledDigest != want_fp) {
            std::cerr << "fig10_managed_sampling: sampled managed "
                         "fingerprint "
                      << std::hex << best.sampledDigest
                      << " does not match expected " << want_fp << std::dec
                      << " — the managed sampled path drifted\n";
            failed = true;
        } else {
            std::cout << "sampled managed fingerprint matches "
                         "--expect-managed-fingerprint\n";
        }
    }
    if (failed)
        return 1;
    std::cout << "all gates passed\n";
    return 0;
}
