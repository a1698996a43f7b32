/**
 * @file
 * Per-thread scaling laws: the Stall / Leading Loads / CRIT estimators
 * and the BURST extension.
 *
 * Every whole-application predictor in this library reduces, for one
 * thread over one interval, to the classic two-component law
 * (Section II-A of the paper):
 *
 *     T(f_target) = T_scaling * (f_base / f_target) + T_nonscaling
 *
 * The estimators differ only in how T_nonscaling is read from the
 * hardware counters; BURST adds the store-queue-full time to whichever
 * estimator is in use (Section III-D).
 */

#ifndef DVFS_PRED_SCALING_HH
#define DVFS_PRED_SCALING_HH

#include <algorithm>
#include <string>

#include "sim/time.hh"
#include "uarch/perf_counters.hh"

namespace dvfs::pred {

/** Which hardware counter supplies the non-scaling component. */
enum class BaseEstimator {
    StallTime,    ///< commit-stall cycles [16], [26]
    LeadingLoads, ///< leading-load latency per miss burst [16],[26],[34]
    Crit,         ///< critical dependent-miss path (CRIT) [31]
    Oracle,       ///< simulator's true memory time (analysis only)
};

/** A per-thread scaling model: base estimator +/- BURST. */
struct ModelSpec {
    BaseEstimator base = BaseEstimator::Crit;
    bool burst = false;

    std::string name() const;
};

/** Printable name of a base estimator. */
const char *baseEstimatorName(BaseEstimator e);

/**
 * The counter field @p base reads as non-scaling time (the field
 * nonscalingTime reads, for readers of packed epoch entries).
 */
inline uarch::CounterField
nonscalingField(BaseEstimator base)
{
    switch (base) {
      case BaseEstimator::StallTime:
        return uarch::CounterField::StallNonscaling;
      case BaseEstimator::LeadingLoads:
        return uarch::CounterField::LeadingNonscaling;
      case BaseEstimator::Crit:
        return uarch::CounterField::CritNonscaling;
      case BaseEstimator::Oracle:
        break;
    }
    return uarch::CounterField::TrueMemTime;
}

/** Non-scaling time of a counter block under @p spec. */
inline Tick
nonscalingTime(const uarch::PerfCounters &c, const ModelSpec &spec)
{
    Tick n = 0;
    switch (spec.base) {
      case BaseEstimator::StallTime:
        n = c.stallNonscaling;
        break;
      case BaseEstimator::LeadingLoads:
        n = c.leadingNonscaling;
        break;
      case BaseEstimator::Crit:
        n = c.critNonscaling;
        break;
      case BaseEstimator::Oracle:
        n = c.trueMemTime;
        break;
    }
    if (spec.burst)
        n += c.sqFullTime;
    return n;
}

/**
 * The two-component law itself: @p scaling ticks stretched by @p ratio
 * (rounded to nearest), plus @p nonscaling ticks unchanged.
 */
inline Tick
scaleSplit(Tick scaling, Tick nonscaling, double ratio)
{
    return static_cast<Tick>(
               roundHalfAway(static_cast<double>(scaling) * ratio)) +
           nonscaling;
}

/**
 * Predict the duration of an interval measured as @p span at the base
 * frequency, given the counters accumulated within it.
 *
 * @param span  Observed duration at the base frequency.
 * @param c     Counter deltas over the interval.
 * @param spec  Estimator choice.
 * @param ratio f_base / f_target.
 */
inline Tick
predictSpan(Tick span, const uarch::PerfCounters &c, const ModelSpec &spec,
            double ratio)
{
    Tick n = std::min(nonscalingTime(c, spec), span);
    return scaleSplit(span - n, n, ratio);
}

} // namespace dvfs::pred

#endif // DVFS_PRED_SCALING_HH
