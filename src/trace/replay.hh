/**
 * @file
 * Replay engine: evaluate predictors offline from recorded traces.
 *
 * DEP+BURST's record-once/reuse-many move: one base-frequency run is
 * recorded to a .dvfstrace, and every ModelSpec predictor variant is
 * then evaluated across the full target-frequency grid without
 * touching the simulator. When the actual execution time at a target
 * is known (from a recorded run of the same workload/seed at that
 * frequency), the replay also produces the signed relative error —
 * bit-identical to what the live path computes, because predictors
 * are pure functions of the RunRecord and the trace round-trips every
 * observed field exactly.
 */

#ifndef DVFS_TRACE_REPLAY_HH
#define DVFS_TRACE_REPLAY_HH

#include <memory>
#include <string>
#include <vector>

#include "pred/predictors.hh"
#include "sim/time.hh"

namespace dvfs::trace {

/** One target operating point to replay against. */
struct ReplayTarget {
    Frequency freq;
    /** Ground-truth execution time at freq; 0 = unknown. */
    Tick actual = 0;
};

/** One (predictor, target) evaluation from one recorded run. */
struct ReplayCell {
    std::string predictor;  ///< canonical name (Predictor::name())
    Frequency target;
    Tick predicted = 0;
    Tick actual = 0;        ///< 0 = no ground truth supplied
    double error = 0.0;     ///< relative error; 0 when actual unknown
};

/**
 * Evaluates a set of predictors over target grids.
 *
 * The default predictor set is the registry's Figure 3 zoo; any list
 * of Predictor instances can be supplied instead (e.g. the estimator
 * ablation ladder).
 */
class ReplayEngine
{
  public:
    /** Replay with the canonical Figure 3 predictor set. */
    ReplayEngine();

    /** Replay with an explicit predictor set (takes ownership). */
    explicit ReplayEngine(
        std::vector<std::unique_ptr<pred::Predictor>> predictors);

    /** Names of the predictors evaluated, in evaluation order. */
    std::vector<std::string> predictorNames() const;

    /** The predictor set itself (borrowed; lives as long as *this). */
    const std::vector<std::unique_ptr<pred::Predictor>> &
    predictors() const
    {
        return _predictors;
    }

    /**
     * Evaluate every predictor at every target from @p base.
     *
     * Cells are ordered target-major, predictor-minor: all predictors
     * at targets[0], then all at targets[1], ...
     */
    std::vector<ReplayCell>
    evaluate(const pred::RunRecord &base,
             const std::vector<ReplayTarget> &targets) const;

  private:
    std::vector<std::unique_ptr<pred::Predictor>> _predictors;
};

} // namespace dvfs::trace

#endif // DVFS_TRACE_REPLAY_HH
