#include "pred/predictors.hh"

#include <algorithm>

#include "sim/log.hh"

namespace dvfs::pred {

const char *
baseEstimatorName(BaseEstimator e)
{
    switch (e) {
      case BaseEstimator::StallTime: return "STALL";
      case BaseEstimator::LeadingLoads: return "LL";
      case BaseEstimator::Crit: return "CRIT";
      case BaseEstimator::Oracle: return "ORACLE";
    }
    return "?";
}

std::string
ModelSpec::name() const
{
    std::string n = baseEstimatorName(base);
    if (burst)
        n += "+BURST";
    return n;
}

namespace {

double
freqRatio(Frequency base, Frequency target)
{
    return static_cast<double>(base.toMHz()) /
           static_cast<double>(target.toMHz());
}

} // namespace

// ---------------------------------------------------------------- M+CRIT

std::string
MCritPredictor::name() const
{
    return "M+" + _spec.name();
}

Tick
MCritPredictor::predict(const RunRecord &run, Frequency target) const
{
    const double ratio = freqRatio(run.baseFreq, target);
    Tick best = 0;
    for (const ThreadSummary &t : run.threads) {
        // A thread's "execution time" is its lifetime span: without
        // epoch decomposition, futex wait time is indistinguishable
        // from running time and lands in the scaling component — the
        // naive predictor's central flaw (Section II-C). Threads whose
        // CPU time is a negligible share of their lifetime (the
        // harness driver parked in join, GC workers parked between
        // collections) are pure coordinators; any practical
        // implementation skips them, or the max would degenerate to
        // ratio * total for every application.
        Tick span = t.exitTick - t.spawnTick;
        if (span == 0 ||
            static_cast<double>(t.totals.busyTime) <
                0.1 * static_cast<double>(span)) {
            continue;
        }
        best = std::max(best, predictSpan(span, t.totals, _spec, ratio));
    }
    return best;
}

// ------------------------------------------------------------------ COOP

std::string
CoopPredictor::name() const
{
    return "COOP(" + _spec.name() + ")";
}

Tick
CoopPredictor::predict(const RunRecord &run, Frequency target) const
{
    const double ratio = freqRatio(run.baseFreq, target);
    const std::vector<Epoch> &epochs = run.epochs;
    const std::vector<ThreadSummary> &threads = run.threads;

    // Phase boundaries: 0, each GC mark, end of run.
    std::vector<Tick> cuts;
    cuts.push_back(0);
    for (const GcPhaseMark &m : run.gcMarks)
        cuts.push_back(m.tick);
    cuts.push_back(run.totalTime);

    // Per phase, aggregate per-thread counter deltas from the epochs
    // inside the phase, then apply M+CRIT within the phase.
    Tick total = 0;
    std::size_t ei = 0;
    const std::size_t nthreads = threads.size();
    std::vector<Tick> busy(nthreads);
    std::vector<uarch::PerfCounters> acc(nthreads);

    for (std::size_t p = 0; p + 1 < cuts.size(); ++p) {
        const Tick a = cuts[p];
        const Tick b = cuts[p + 1];
        if (b <= a)
            continue;

        std::fill(busy.begin(), busy.end(), 0);
        std::fill(acc.begin(), acc.end(), uarch::PerfCounters{});
        while (ei < epochs.size() && epochs[ei].end <= b) {
            const Epoch &ep = epochs[ei];
            if (ep.start >= a) {
                for (const EpochThread &et : ep.active) {
                    busy[et.tid] += et.delta.busyTime;
                    acc[et.tid] += et.delta;
                }
            }
            ++ei;
        }

        // M+CRIT within the phase: a participating thread's execution
        // time is its overlap with the phase (waits included — COOP
        // fixes only the application/collector alternation, not
        // fine-grained waits). Coordinator threads (negligible CPU
        // share of the phase) are skipped as in MCritPredictor.
        const Tick phase_len = b - a;
        Tick phase_pred = 0;
        for (std::size_t t = 0; t < nthreads; ++t) {
            if (busy[t] == 0)
                continue;
            Tick span = std::min(threads[t].exitTick, b) -
                        std::max(threads[t].spawnTick, a);
            span = std::min(span, phase_len);
            if (static_cast<double>(busy[t]) <
                0.1 * static_cast<double>(span)) {
                continue;
            }
            phase_pred = std::max(
                phase_pred, predictSpan(span, acc[t], _spec, ratio));
        }
        total += phase_pred;
    }
    return total;
}

// ------------------------------------------------------------------- DEP

std::string
DepPredictor::name() const
{
    std::string n = "DEP";
    if (_spec.burst)
        n += "+BURST";
    if (!_acrossEpochs)
        n += "(per-epoch CTP)";
    if (_spec.base != BaseEstimator::Crit) {
        n += '[';
        n += baseEstimatorName(_spec.base);
        n += ']';
    }
    return n;
}

Tick
DepPredictor::predictEpochRange(const std::vector<Epoch> &epochs,
                                std::size_t first, std::size_t last,
                                double ratio) const
{
    // Compact and evaluate block by block: the block's terms stay in
    // cache, and a whole-run prediction never materialises the run's
    // terms. Algorithm 1's state carries across blocks, and the
    // running total is summed epoch by epoch as in one pass.
    constexpr std::size_t kBlockEpochs = 256;
    last = std::min(last, epochs.size());
    EpochTerms block;
    std::vector<double> delta;
    double total = 0.0;
    for (std::size_t i = first; i < last; i += kBlockEpochs) {
        compactEpochs(epochs, i, std::min(last, i + kBlockEpochs), block);
        accumulateTerms(block, ratio, delta, total);
    }
    return static_cast<Tick>(roundHalfAway(total));
}

void
DepPredictor::compactEpochs(const std::vector<Epoch> &epochs,
                            std::size_t first, std::size_t last,
                            EpochTerms &out) const
{
    out.clear();
    last = std::min(last, epochs.size());
    if (first >= last)
        return;
    out.epochs.reserve(last - first);
    // Size the terms up front: a manager quantum compacts into a fresh
    // block, which would otherwise regrow about ten times.
    std::size_t terms = 0;
    for (std::size_t i = first; i < last; ++i)
        terms += epochs[i].active.size();
    out.terms.reserve(terms);
    // Only busy time and the estimator's fields are read, straight
    // from the packed entries.
    const uarch::CounterField base_field = nonscalingField(_spec.base);
    for (std::size_t i = first; i < last; ++i) {
        const Epoch &ep = epochs[i];
        EpochTerms::Span span;
        span.duration = ep.duration();
        span.active = static_cast<std::uint32_t>(ep.active.size());
        span.stallTid = ep.stallTid;
        if (ep.stallTid != os::kNoThread)
            out.threads = std::max<std::size_t>(out.threads,
                                                ep.stallTid + 1u);
        out.maxActive = std::max<std::size_t>(out.maxActive,
                                              ep.active.size());
        const std::uint64_t *w = ep.active.words();
        for (std::size_t k = 0; k < ep.active.size(); ++k) {
            const PackedThread et(w);
            w = et.end();
            // predictSpan's split with the span set to the thread's
            // busy time, so only the rounding of the scaled part is
            // left for predictTerms.
            const Tick busy = et.field(uarch::CounterField::BusyTime);
            Tick nonscaling = et.field(base_field);
            if (_spec.burst)
                nonscaling += et.field(uarch::CounterField::SqFullTime);
            EpochTerms::Term t;
            t.tid = et.tid();
            t.nonscaling = std::min(nonscaling, busy);
            t.scaling = busy - t.nonscaling;
            out.terms.push_back(t);
            out.threads = std::max<std::size_t>(out.threads, t.tid + 1u);
        }
        out.epochs.push_back(span);
    }
}

Tick
DepPredictor::predictTerms(const EpochTerms &terms, double ratio) const
{
    std::vector<double> delta;
    double total = 0.0;
    accumulateTerms(terms, ratio, delta, total);
    return static_cast<Tick>(roundHalfAway(total));
}

void
DepPredictor::accumulateTerms(const EpochTerms &terms, double ratio,
                              std::vector<double> &delta,
                              double &total) const
{
    auto scaled = [ratio](const EpochTerms::Term &t) {
        return scaleSplit(t.scaling, t.nonscaling, ratio);
    };

    // Delta counters (Algorithm 1): accumulated slack per thread.
    if (delta.size() < terms.threads)
        delta.resize(terms.threads, 0.0);
    // Each active thread's a_t, computed once per epoch and reused by
    // the slack update.
    std::vector<double> a(terms.maxActive);

    const EpochTerms::Term *term = terms.terms.data();
    for (const EpochTerms::Span &ep : terms.epochs) {
        const EpochTerms::Term *const ep_terms = term;
        term += ep.active;

        if (ep.active == 0) {
            // Nothing was scheduled (e.g. everyone asleep around a
            // wake chain): the gap does not scale with frequency.
            total += static_cast<double>(ep.duration);
            continue;
        }

        if (!_acrossEpochs) {
            // Per-epoch CTP: the epoch lasts as long as its slowest
            // active thread, with no memory of earlier epochs.
            Tick crit = 0;
            for (std::uint32_t k = 0; k < ep.active; ++k)
                crit = std::max(crit, scaled(ep_terms[k]));
            total += static_cast<double>(crit);
            continue;
        }

        // Across-epoch CTP, Algorithm 1 of the paper.
        double epoch_pred = 0.0;
        for (std::uint32_t k = 0; k < ep.active; ++k) {
            a[k] = static_cast<double>(scaled(ep_terms[k]));
            double e_t = a[k] - delta[ep_terms[k].tid];
            epoch_pred = std::max(epoch_pred, e_t);
        }
        epoch_pred = std::max(epoch_pred, 0.0);
        for (std::uint32_t k = 0; k < ep.active; ++k)
            delta[ep_terms[k].tid] += epoch_pred - a[k];
        if (ep.stallTid != os::kNoThread)
            delta[ep.stallTid] = 0.0;
        total += epoch_pred;
    }
}

Tick
DepPredictor::predict(const RunRecord &run, Frequency target) const
{
    const double ratio = freqRatio(run.baseFreq, target);
    const std::vector<Epoch> &epochs = run.epochs;
    return predictEpochRange(epochs, 0, epochs.size(), ratio);
}

} // namespace dvfs::pred
