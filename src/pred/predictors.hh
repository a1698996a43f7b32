/**
 * @file
 * Whole-application DVFS performance predictors.
 *
 * All predictors implement the same contract: given the RunRecord of a
 * base-frequency run, estimate the total execution time at a target
 * frequency. They differ in decomposition granularity:
 *
 *  - M+CRIT  (Section II-C): one interval per thread — its lifetime;
 *    the application prediction is the slowest thread's prediction.
 *    Wait time lands in the scaling component, the paper's motivating
 *    flaw.
 *  - COOP    (Section II-C): the timeline is cut only at GC phase
 *    boundaries; M+CRIT is applied per phase and the phases are
 *    summed.
 *  - DEP     (Section III): the timeline is cut at every
 *    synchronization epoch; per epoch the critical thread is found via
 *    per-epoch CTP (max) or across-epoch CTP (Algorithm 1, with delta
 *    counters carrying thread slack between epochs).
 *
 * Each takes a ModelSpec, so every combination the paper evaluates
 * (M+CRIT, COOP, DEP, each with and without BURST, and DEP+BURST with
 * per-epoch vs across-epoch CTP) is one constructor call.
 */

#ifndef DVFS_PRED_PREDICTORS_HH
#define DVFS_PRED_PREDICTORS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "pred/record.hh"
#include "pred/scaling.hh"
#include "sim/time.hh"

namespace dvfs::pred {

/**
 * Interface of a whole-run execution-time predictor.
 *
 * Predictors observe a run only through the five fields of its
 * RunRecord (record.hh), so the same instance predicts from a live
 * record or from a loaded .dvfstrace with bit-identical results.
 */
class Predictor
{
  public:
    virtual ~Predictor() = default;

    /** Human-readable name, e.g. "DEP+BURST". */
    virtual std::string name() const = 0;

    /** Estimate total execution time at @p target. */
    virtual Tick predict(const RunRecord &run, Frequency target) const = 0;

    /** Signed relative error vs. @p actual: estimated/actual - 1. */
    static double
    relativeError(Tick estimated, Tick actual)
    {
        return static_cast<double>(estimated) /
                   static_cast<double>(actual) -
               1.0;
    }
};

/**
 * M+CRIT: per-thread whole-lifetime scaling, slowest thread wins.
 */
class MCritPredictor : public Predictor
{
  public:
    explicit MCritPredictor(ModelSpec spec) : _spec(spec) {}

    std::string name() const override;
    Tick predict(const RunRecord &run, Frequency target) const override;

  private:
    ModelSpec _spec;
};

/**
 * COOP: M+CRIT applied independently to application and collector
 * phases (cut at the GC begin/end signals), summed.
 */
class CoopPredictor : public Predictor
{
  public:
    explicit CoopPredictor(ModelSpec spec) : _spec(spec) {}

    std::string name() const override;
    Tick predict(const RunRecord &run, Frequency target) const override;

  private:
    ModelSpec _spec;
};

/**
 * A span of epochs reduced to what DEP reads of it: per epoch its
 * duration and stall thread, per active thread its scaling and
 * non-scaling time under one ModelSpec. Compacting is the ratio-free
 * half of DEP, done once; evaluating the terms at a ratio is the
 * arithmetic half, repeated per candidate frequency (the energy
 * manager evaluates one quantum at every operating point).
 */
struct EpochTerms {
    /** One active thread's share of one epoch. */
    struct Term {
        os::ThreadId tid = os::kNoThread;
        Tick scaling = 0;     ///< busyTime - nonscaling
        Tick nonscaling = 0;  ///< nonscalingTime() clamped to busyTime
    };

    /** One epoch; its terms follow its predecessors' in `terms`. */
    struct Span {
        Tick duration = 0;
        std::uint32_t active = 0;  ///< number of terms (active threads)
        os::ThreadId stallTid = os::kNoThread;
    };

    std::vector<Span> epochs;
    std::vector<Term> terms;
    std::size_t threads = 0;    ///< 1 + the largest tid named
    std::size_t maxActive = 0;  ///< most terms in one epoch

    void
    clear()
    {
        epochs.clear();
        terms.clear();
        threads = 0;
        maxActive = 0;
    }
};

/**
 * DEP: synchronization-epoch decomposition with critical-thread
 * prediction, per-epoch or across-epoch (Algorithm 1).
 */
class DepPredictor : public Predictor
{
  public:
    /**
     * @param spec          Per-thread estimator (CRIT for the paper's
     *                      DEP; +burst for DEP+BURST).
     * @param across_epochs true = across-epoch CTP (Algorithm 1),
     *                      false = per-epoch CTP.
     */
    DepPredictor(ModelSpec spec, bool across_epochs = true)
        : _spec(spec), _acrossEpochs(across_epochs)
    {
    }

    std::string name() const override;
    Tick predict(const RunRecord &run, Frequency target) const override;

    /**
     * Predict the duration of a contiguous span of epochs — the
     * building block shared by predict() and the energy manager's
     * per-quantum estimation.
     *
     * @param epochs Epoch sequence (begin/end iterator-style indices).
     * @param ratio  f_base / f_target.
     */
    Tick predictEpochRange(const std::vector<Epoch> &epochs,
                           std::size_t first, std::size_t last,
                           double ratio) const;

    /**
     * The ratio-free half of predictEpochRange: reduce epochs
     * [first, last) to @p out (cleared first, capacity kept).
     */
    void compactEpochs(const std::vector<Epoch> &epochs,
                       std::size_t first, std::size_t last,
                       EpochTerms &out) const;

    /**
     * The arithmetic half: predicted duration of compacted epochs at
     * @p ratio = f_base / f_target. Bit-identical to
     * predictEpochRange over the same span.
     */
    Tick predictTerms(const EpochTerms &terms, double ratio) const;

  private:
    /**
     * Run DEP over @p terms, continuing from the Algorithm 1 slack
     * @p delta (grown as needed) and adding each epoch's prediction
     * to @p total in order.
     */
    void accumulateTerms(const EpochTerms &terms, double ratio,
                         std::vector<double> &delta, double &total) const;

    ModelSpec _spec;
    bool _acrossEpochs;
};

} // namespace dvfs::pred

#endif // DVFS_PRED_PREDICTORS_HH
