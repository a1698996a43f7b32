/**
 * @file
 * Exact-vs-sampled differential harness: measured error bounds.
 *
 * A sampled run (exp::SimMode::Sampled) is only useful if its error
 * against the cycle-accurate oracle is *measured*, not assumed. This
 * module runs the same sweep grid in both modes and reports
 *
 *  - per-cell total-time error (the direct fidelity of the fast path),
 *  - per-predictor slowdown-prediction error envelopes: each registry
 *    predictor consumes the *sampled* base-frequency record, as it
 *    would an exact one, and predicts the slowdown at every other grid
 *    frequency; the envelope compares that against the slowdown the
 *    *exact* runs actually exhibit — the end-to-end number the paper's
 *    use case (DVFS performance prediction) cares about,
 *  - both grid digests and wall-clock times, so CI can pin the sampled
 *    fingerprint and gate on the speedup/error trade-off.
 */

#ifndef DVFS_EXP_SWEEP_DIFFERENTIAL_HH
#define DVFS_EXP_SWEEP_DIFFERENTIAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "exp/sweep/sweep.hh"
#include "sim/sampling.hh"

namespace dvfs::exp::sweep {

/** Slowdown-prediction error envelope of one predictor. */
struct PredictorErrorBound {
    std::string predictor;
    double meanAbsPct = 0.0;  ///< mean |pred - actual|/actual, percent
    double maxAbsPct = 0.0;   ///< worst cell, percent
    std::size_t samples = 0;  ///< (workload, seed, target-freq) triples

    /**
     * Same envelope with the predictor fed the *exact* base record —
     * the predictor's inherent model error on this grid. The spread
     * between meanAbsPct and this is the error sampling itself adds.
     */
    double meanAbsPctExactFed = 0.0;
    double maxAbsPctExactFed = 0.0;
};

/** Everything one exact-vs-sampled differential run measured. */
struct ModeComparison {
    /** The grid both modes executed (mode fields overridden). */
    SweepSpec spec;

    /** Window placement the sampled side ran with. */
    sim::SamplingConfig sampling;

    /** Per-cell signed total-time error, percent, flattened order. */
    std::vector<double> cellTimeErrPct;
    double meanAbsTimeErrPct = 0.0;
    double maxAbsTimeErrPct = 0.0;

    /**
     * Slowdown-prediction error of the sampled simulation itself: for
     * every (workload, seed, target frequency), how far the sampled
     * slowdown T_s(f)/T_s(f0) lands from the exact T_e(f)/T_e(f0).
     * This is the headline fidelity gate — systematic per-cell time
     * bias cancels in the ratio, exactly as it does for the paper's
     * use case (predicting relative performance across DVFS states).
     */
    double meanAbsSlowdownErrPct = 0.0;
    double maxAbsSlowdownErrPct = 0.0;
    std::size_t slowdownSamples = 0;

    /** Slowdown-prediction envelopes, registry order. */
    std::vector<PredictorErrorBound> predictors;

    /** Grid digests (gridDigest over each mode's cells). */
    std::uint64_t exactDigest = 0;
    std::uint64_t sampledDigest = 0;

    /** Wall-clock seconds each mode took (whole grid). */
    double exactWallSec = 0.0;
    double sampledWallSec = 0.0;

    /** Sampling stats summed over all sampled cells. */
    sim::SampleStats sampleTotals;

    /** Grid-level wall-clock speedup of sampled over exact. */
    double
    speedup() const
    {
        return sampledWallSec > 0.0 ? exactWallSec / sampledWallSec : 0.0;
    }

    /** Mean over predictors of meanAbsPct (the headline number). */
    double meanPredictorErrPct() const;

    /** Max over predictors of maxAbsPct. */
    double maxPredictorErrPct() const;
};

/** FNV-1a digest over a whole grid, cell fingerprints in order. */
std::uint64_t gridDigest(const SweepResult &res);

/**
 * Run @p spec in both modes and measure the error bounds.
 *
 * @p spec.frequencies.front() is the prediction base; a grid with a
 * single frequency yields empty predictor envelopes (there is nothing
 * to predict) but still measures per-cell time error.
 * spec.runOptions.mode/sampling are overridden per side.
 */
ModeComparison compareModes(const SweepSpec &spec,
                            const sim::SamplingConfig &sampling,
                            unsigned workers = 1, bool progress = false);

/**
 * Everything one exact-vs-sampled *managed* differential measured.
 *
 * The managed analogue of ModeComparison: each (workload, seed) cell
 * runs under the energy manager in both modes, plus a fixed-at-highest
 * baseline per mode so the headline error is on the *achieved
 * slowdown* S = T_managed / T_fixedHighest computed within-mode —
 * exactly the quantity fig6 reports, with systematic per-cell time
 * bias cancelling in the ratio as it does for compareModes.
 */
struct ManagedComparison {
    /** Window placement the sampled side ran with. */
    sim::SamplingConfig sampling;

    /** (workload, seed) cells per mode, flattened seed-innermost. */
    std::size_t cells = 0;

    /** Per-cell signed managed total-time error, percent. */
    std::vector<double> cellTimeErrPct;
    double meanAbsTimeErrPct = 0.0;
    double maxAbsTimeErrPct = 0.0;

    /** Achieved-slowdown error (the headline fidelity gate). */
    double meanAbsSlowdownErrPct = 0.0;
    double maxAbsSlowdownErrPct = 0.0;
    std::size_t slowdownSamples = 0;

    /** Managed grid digests (managedGridDigest over each mode). */
    std::uint64_t exactDigest = 0;
    std::uint64_t sampledDigest = 0;

    /** Wall-clock seconds of each managed grid (baselines excluded). */
    double exactWallSec = 0.0;
    double sampledWallSec = 0.0;

    /** Sampling stats summed over all sampled managed cells. */
    sim::SampleStats sampleTotals;

    /** DVFS transitions summed over the sampled managed cells. */
    std::uint64_t transitions = 0;

    /** Grid-level wall-clock speedup of sampled over exact managed. */
    double
    speedup() const
    {
        return sampledWallSec > 0.0 ? exactWallSec / sampledWallSec : 0.0;
    }
};

/** FNV-1a digest over a managed grid, cell fingerprints in order. */
std::uint64_t managedGridDigest(const std::vector<ManagedRunOutput> &cells);

/**
 * Run every (workload, seed) cell under the energy manager in both
 * modes (plus fixed-at-highest baselines per mode) and measure the
 * sampled side's error and speedup. @p sampling applies to the
 * sampled side's managed cells and baseline alike.
 */
ManagedComparison
compareManagedModes(const std::vector<wl::WorkloadParams> &workloads,
                    const mgr::ManagerConfig &mgrCfg,
                    const power::VfTable &table,
                    const sim::SamplingConfig &sampling,
                    const std::vector<std::uint64_t> &seeds = {42},
                    unsigned workers = 1);

} // namespace dvfs::exp::sweep

#endif // DVFS_EXP_SWEEP_DIFFERENTIAL_HH
