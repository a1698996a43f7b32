/**
 * @file
 * PredictorRegistry: the canonical name -> factory map over ModelSpec.
 *
 * Every harness used to hand-roll its predictor list, so the spelling
 * of a predictor variant ("DEP+BURST", "COOP(CRIT)", ...) was
 * duplicated across fig3, the ablation, the microbenchmarks and the
 * replay tools. The registry is the single source of truth: a *family*
 * name selects the whole-run decomposition (M+CRIT, COOP, DEP,
 * DEP/per-epoch), a ModelSpec selects the per-thread estimator inside
 * it, and the constructed predictor's name() is the canonical spelling
 * used in tables and CLI flags.
 */

#ifndef DVFS_PRED_REGISTRY_HH
#define DVFS_PRED_REGISTRY_HH

#include <memory>
#include <string>
#include <vector>

#include "pred/predictors.hh"
#include "pred/scaling.hh"

namespace dvfs::pred {

/**
 * Immutable registry of predictor families.
 *
 * Families registered (canonical names):
 *
 *  - "M+CRIT"        MCritPredictor
 *  - "COOP"          CoopPredictor
 *  - "DEP"           DepPredictor, across-epoch CTP (Algorithm 1)
 *  - "DEP/per-epoch" DepPredictor, per-epoch CTP
 */
class PredictorRegistry
{
  public:
    /** Factory: construct one family member over a ModelSpec. */
    using Factory = std::unique_ptr<Predictor> (*)(const ModelSpec &);

    /** The process-wide registry (built once, never mutated). */
    static const PredictorRegistry &instance();

    /** True if @p family is registered. */
    bool has(const std::string &family) const;

    /**
     * Construct family @p family over @p spec.
     *
     * fatal()s on an unknown family name (user error: the name came
     * from a CLI flag or a config file).
     */
    std::unique_ptr<Predictor> make(const std::string &family,
                                    const ModelSpec &spec) const;

    /** All registered family names, in registration order. */
    std::vector<std::string> families() const;

    /**
     * The Figure 3 zoo: M+CRIT, COOP and DEP, each with CRIT and
     * CRIT+BURST, in the paper's column order.
     */
    std::vector<std::unique_ptr<Predictor>> figure3Set() const;

    /**
     * The estimator-ablation ladder inside one family: @p family over
     * every BaseEstimator x {-BURST, +BURST}, in ablation column
     * order (STALL, STALL+BURST, LL, ..., ORACLE+BURST).
     */
    std::vector<std::unique_ptr<Predictor>>
    estimatorLadder(const std::string &family = "DEP") const;

  private:
    PredictorRegistry();

    struct Entry {
        std::string name;
        Factory factory;
    };
    std::vector<Entry> _entries;
};

} // namespace dvfs::pred

#endif // DVFS_PRED_REGISTRY_HH
