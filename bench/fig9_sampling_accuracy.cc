/**
 * @file
 * Sampled-simulation accuracy: speedup vs measured error bounds.
 *
 * This is the repo's "Figure 9" extension to the paper's evaluation:
 * the interval-sampled fast path (DESIGN.md section 11) is only
 * admissible if its error against the cycle-accurate oracle is
 * measured, not assumed. For each requested gap length the fig3
 * ground-truth grid runs in both modes through
 * exp::sweep::compareModes, and the bench reports
 *
 *  - the grid wall-clock speedup of sampled over exact,
 *  - per-cell total-time error and (the headline) slowdown-prediction
 *    error — how far sampled T(f)/T(f0) ratios land from exact ones,
 *  - per-predictor slowdown error envelopes, sampled-fed vs exact-fed,
 *    so the error *sampling adds* is separated from the predictors'
 *    inherent model error.
 *
 * Error metrics are deterministic — repeats reproduce them
 * bit-for-bit; only wall times move — so CI can gate hard on them.
 *
 * Usage: fig9_sampling_accuracy [--benchmarks=4] [--seeds=1]
 *          [--gaps=980] [--detail-us=30] [--startup-us=60]
 *          [--workers=N] [--repeat=1] [--fail-err-pct=X]
 *          [--fail-speedup=X] [--expect-sampled-fingerprint=0x...]
 *          [--progress]
 *
 * --gaps is a comma-separated list of fast-forward gap lengths in
 * microseconds; each is measured with the same detail/startup windows
 * (a window/gap-ratio sweep). --repeat measures each configuration N
 * times, reports minimum walls, and fails if any repeat's digest (in
 * either mode) deviates. --fail-err-pct / --fail-speedup gate every
 * measured configuration on mean |slowdown error| / grid speedup;
 * --expect-sampled-fingerprint pins the first configuration's sampled
 * digest (CI runs a single gap, so "first" is "the default").
 */

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "exp/sweep/differential.hh"
#include "exp/table.hh"

using namespace dvfs;

int
main(int argc, char **argv)
{
    bench::FlagSet args("fig9_sampling_accuracy",
                        "sampled-vs-exact error bounds and speedup");
    args.add("benchmarks", "N",
             "workloads from the DaCapo suite (default 4)")
        .add("seeds", "N", "replicate seeds per workload (default 1)")
        .add("gaps", "CSV",
             "fast-forward gap lengths in us (default 980)")
        .addWorkers()
        .addSampling()
        .addRepeat()
        .add("fail-err-pct", "X",
             "fail if mean |slowdown err| exceeds X percent")
        .add("fail-speedup", "X",
             "fail if grid speedup falls below X")
        .add("expect-sampled-fingerprint", "0x...",
             "pin the first configuration's sampled digest")
        .addBool("progress", "progress/ETA lines on stderr");
    args.parse(argc, argv);

    const auto n_bench =
        static_cast<std::size_t>(args.getInt("benchmarks", 4, 1));
    const auto n_seeds =
        static_cast<std::size_t>(args.getInt("seeds", 1, 1));
    const bool progress = args.has("progress");
    const unsigned workers = bench::workersFromArgs(args);
    const auto repeat = static_cast<unsigned>(args.getInt("repeat", 1, 1));
    const double fail_err = args.getDouble("fail-err-pct", 0.0);
    const double fail_speedup = args.getDouble("fail-speedup", 0.0);
    const bool pin_fp = args.has("expect-sampled-fingerprint");
    const std::uint64_t want_fp =
        args.getHex("expect-sampled-fingerprint", 0);

    const sim::SamplingConfig base = bench::samplingFromArgs(args);
    const std::vector<long> gaps_us = args.getIntList("gaps", "980");

    exp::sweep::SweepSpec spec = bench::fig3GridSpec(n_bench);
    spec.seeds = exp::sweep::SweepSpec::replicateSeeds(42, n_seeds);

    std::cout << "fig9_sampling_accuracy: " << spec.workloads.size()
              << " benchmarks x " << spec.frequencies.size()
              << " frequencies x " << spec.seeds.size() << " seeds, "
              << "detail=" << base.detailWindow / kTicksPerUs
              << "us startup=" << base.startupDetail / kTicksPerUs
              << "us, workers=" << workers << ", repeat=" << repeat
              << "\n\n";

    exp::Table table({"gap us", "cov %", "speedup", "time err %",
                      "slowdown err %", "pred err %", "exact-fed %"});
    std::vector<exp::sweep::ModeComparison> results;
    bool repeats_ok = true;

    for (long gap_us : gaps_us) {
        sim::SamplingConfig cfg = base;
        cfg.gapWindow = static_cast<Tick>(gap_us) * kTicksPerUs;

        exp::sweep::ModeComparison best;
        for (unsigned r = 0; r < repeat; ++r) {
            auto cmp =
                exp::sweep::compareModes(spec, cfg, workers, progress);
            if (r == 0) {
                best = std::move(cmp);
                continue;
            }
            if (cmp.exactDigest != best.exactDigest ||
                cmp.sampledDigest != best.sampledDigest) {
                std::cerr << "fig9_sampling_accuracy: digest drift "
                             "across repeats at gap=" << gap_us
                          << "us\n";
                repeats_ok = false;
            }
            best.exactWallSec =
                std::min(best.exactWallSec, cmp.exactWallSec);
            best.sampledWallSec =
                std::min(best.sampledWallSec, cmp.sampledWallSec);
        }

        const double cov = best.sampleTotals.coverage() * 100.0;
        table.addRow(
            {std::to_string(gap_us), exp::Table::fmt(cov, 1),
             exp::Table::fmt(best.speedup(), 1),
             exp::Table::fmt(best.meanAbsTimeErrPct, 2) + " / " +
                 exp::Table::fmt(best.maxAbsTimeErrPct, 2),
             exp::Table::fmt(best.meanAbsSlowdownErrPct, 2) + " / " +
                 exp::Table::fmt(best.maxAbsSlowdownErrPct, 2),
             exp::Table::fmt(best.meanPredictorErrPct(), 2) + " / " +
                 exp::Table::fmt(best.maxPredictorErrPct(), 2),
             exp::Table::fmt(
                 best.predictors.empty()
                     ? 0.0
                     : [&] {
                           double s = 0.0;
                           for (const auto &p : best.predictors)
                               s += p.meanAbsPctExactFed;
                           return s / static_cast<double>(
                                          best.predictors.size());
                       }(),
                 2)});

        results.push_back(std::move(best));
    }

    table.print(std::cout);

    // Per-predictor envelopes for the first (default) configuration:
    // the sampled-fed column is the end-to-end error bound, the
    // exact-fed column the predictor's inherent error on this grid.
    const exp::sweep::ModeComparison &head = results.front();
    std::cout << "\npredictor slowdown-error envelopes (gap="
              << gaps_us.front() << "us):\n";
    exp::Table ptab({"predictor", "sampled mean %", "sampled max %",
                     "exact-fed mean %", "exact-fed max %", "samples"});
    for (const auto &p : head.predictors)
        ptab.addRow({p.predictor, exp::Table::fmt(p.meanAbsPct, 2),
                     exp::Table::fmt(p.maxAbsPct, 2),
                     exp::Table::fmt(p.meanAbsPctExactFed, 2),
                     exp::Table::fmt(p.maxAbsPctExactFed, 2),
                     std::to_string(p.samples)});
    ptab.print(std::cout);

    char fps[80];
    std::snprintf(fps, sizeof(fps),
                  "\nfingerprints: exact=0x%016llx sampled=0x%016llx\n",
                  static_cast<unsigned long long>(head.exactDigest),
                  static_cast<unsigned long long>(head.sampledDigest));
    std::cout << fps;

    bool failed = !repeats_ok;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const auto &cmp = results[i];
        if (fail_err > 0.0 && cmp.meanAbsSlowdownErrPct > fail_err) {
            std::cerr << "fig9_sampling_accuracy: gap="
                      << gaps_us[i] << "us mean |slowdown err| "
                      << cmp.meanAbsSlowdownErrPct
                      << "% exceeds the --fail-err-pct=" << fail_err
                      << " bound\n";
            failed = true;
        }
        if (fail_speedup > 0.0 && cmp.speedup() < fail_speedup) {
            std::cerr << "fig9_sampling_accuracy: gap=" << gaps_us[i]
                      << "us speedup " << cmp.speedup()
                      << "x below the --fail-speedup=" << fail_speedup
                      << " bound\n";
            failed = true;
        }
    }
    if (pin_fp) {
        if (head.sampledDigest != want_fp) {
            std::cerr << "fig9_sampling_accuracy: sampled fingerprint "
                      << std::hex << head.sampledDigest
                      << " does not match expected " << want_fp << std::dec
                      << " — the sampled fast path drifted\n";
            failed = true;
        } else {
            std::cout <<
                "sampled fingerprint matches "
                "--expect-sampled-fingerprint\n";
        }
    }
    if (failed)
        return 1;
    std::cout << "all gates passed\n";
    return 0;
}
