/**
 * @file
 * Differential tests of DEP's compacted evaluation: compactEpochs +
 * predictTerms (and predictEpochRange built on them) must equal the
 * plain two-pass Algorithm 1 over the raw epochs bit for bit, and the
 * energy manager's per-quantum predictions — one compaction, many
 * ratios — must equal predictEpochRange over the same quantum.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "exp/experiment.hh"
#include "mgr/energy_manager.hh"
#include "power/vf_table.hh"
#include "pred/predictors.hh"
#include "sim/rng.hh"
#include "wl/builder.hh"
#include "wl/suite.hh"

using namespace dvfs;
using namespace dvfs::pred;

namespace {

/** predictSpan as the paper states it, with libm's rounding. */
Tick
referenceSpan(Tick span, const uarch::PerfCounters &c, const ModelSpec &spec,
              double ratio)
{
    Tick n = std::min(nonscalingTime(c, spec), span);
    Tick s = span - n;
    return static_cast<Tick>(std::llround(static_cast<double>(s) * ratio)) +
           n;
}

/**
 * DEP over epochs [first, last): per-epoch CTP, or Algorithm 1 with a
 * first pass for the epoch's prediction and a second pass, re-deriving
 * every a_t, for the slack update.
 */
Tick
referenceRange(const std::vector<Epoch> &epochs, std::size_t first,
               std::size_t last, const ModelSpec &spec, bool across,
               double ratio)
{
    std::vector<double> delta;
    auto delta_of = [&delta](os::ThreadId tid) -> double & {
        if (tid >= delta.size())
            delta.resize(tid + 1, 0.0);
        return delta[tid];
    };
    double total = 0.0;
    for (std::size_t i = first; i < last && i < epochs.size(); ++i) {
        const Epoch &ep = epochs[i];
        if (ep.active.empty()) {
            total += static_cast<double>(ep.duration());
            continue;
        }
        if (!across) {
            Tick crit = 0;
            for (const EpochThread &et : ep.active)
                crit = std::max(crit, referenceSpan(et.delta.busyTime,
                                                    et.delta, spec, ratio));
            total += static_cast<double>(crit);
            continue;
        }
        double epoch_pred = 0.0;
        for (const EpochThread &et : ep.active) {
            double a_t = static_cast<double>(
                referenceSpan(et.delta.busyTime, et.delta, spec, ratio));
            epoch_pred = std::max(epoch_pred, a_t - delta_of(et.tid));
        }
        epoch_pred = std::max(epoch_pred, 0.0);
        for (const EpochThread &et : ep.active) {
            double a_t = static_cast<double>(
                referenceSpan(et.delta.busyTime, et.delta, spec, ratio));
            delta_of(et.tid) += epoch_pred - a_t;
        }
        if (ep.stallTid != os::kNoThread)
            delta_of(ep.stallTid) = 0.0;
        total += epoch_pred;
    }
    return static_cast<Tick>(std::llround(total));
}

/**
 * A record of random epochs of up to @p max_len ticks: some with no
 * active thread, non-scaling counters that sometimes exceed the busy
 * time (the clamp), and stall tids both inside and outside the active
 * set.
 */
RunRecord
randomRecord(sim::Rng &rng, std::size_t n, Tick max_len = 200 * kTicksPerUs)
{
    RunRecord rec;
    std::vector<EpochThread> active;
    Tick t = 0;
    for (std::size_t i = 0; i < n; ++i) {
        Epoch ep;
        ep.start = t;
        t += 1 + rng.nextBounded(max_len);
        ep.end = t;
        active.clear();
        if (!rng.nextBool(0.15)) {
            // Ascending distinct tids, as the recorder produces them.
            for (os::ThreadId tid = 0; tid < 10; ++tid) {
                if (active.size() == 4 || !rng.nextBool(0.35))
                    continue;
                EpochThread et;
                et.tid = tid;
                uarch::PerfCounters &c = et.delta;
                c.busyTime = rng.nextBounded(ep.duration() + 1);
                const Tick cap = c.busyTime + c.busyTime / 5 + 1;
                c.critNonscaling = rng.nextBounded(cap);
                c.leadingNonscaling = rng.nextBounded(cap);
                c.stallNonscaling = rng.nextBounded(cap);
                c.trueMemTime = rng.nextBounded(cap);
                c.sqFullTime = rng.nextBounded(c.busyTime / 3 + 1);
                active.push_back(et);
            }
        }
        if (rng.nextBool(0.5))
            ep.stallTid = static_cast<os::ThreadId>(rng.nextBounded(12));
        rec.appendEpoch(ep, active);
    }
    return rec;
}

bool
sameBits(double a, double b)
{
    std::uint64_t ua, ub;
    std::memcpy(&ua, &a, sizeof(ua));
    std::memcpy(&ub, &b, sizeof(ub));
    return ua == ub;
}

} // namespace

TEST(DepTerms, CompactAlgorithmOneMatchesTwoPassReference)
{
    sim::Rng rng(0xa1'90'41ULL);
    const BaseEstimator bases[] = {BaseEstimator::StallTime,
                                   BaseEstimator::LeadingLoads,
                                   BaseEstimator::Crit, BaseEstimator::Oracle};
    std::size_t checks = 0;
    for (int trial = 0; trial < 40; ++trial) {
        // Every fourth trial spans several 256-epoch compaction blocks
        // with totals past 2^53 ticks, where doubles stop holding
        // integers exactly and any change in summation order shows.
        const bool long_run = trial % 4 == 3;
        const RunRecord rec =
            long_run ? randomRecord(rng, 600 + rng.nextBounded(900),
                                    Tick{1} << 46)
                     : randomRecord(rng, 1 + rng.nextBounded(400));
        const std::vector<Epoch> &epochs = rec.epochs;
        for (BaseEstimator base : bases) {
            for (bool burst : {false, true}) {
                for (bool across : {false, true}) {
                    const ModelSpec spec{base, burst};
                    DepPredictor dep(spec, across);
                    // A random span, sometimes running past the end.
                    const std::size_t first =
                        rng.nextBounded(epochs.size());
                    const std::size_t last =
                        first + rng.nextBounded(epochs.size() + 8);
                    EpochTerms terms;
                    dep.compactEpochs(epochs, first, last, terms);
                    for (int r = 0; r < 6; ++r) {
                        const double ratio =
                            r == 0 ? 1.0 : 0.25 + 3.75 * rng.nextDouble();
                        const Tick ref = referenceRange(
                            epochs, first, last, spec, across, ratio);
                        ASSERT_EQ(dep.predictTerms(terms, ratio), ref)
                            << dep.name() << " trial " << trial;
                        ASSERT_EQ(dep.predictEpochRange(epochs, first, last,
                                                        ratio),
                                  ref)
                            << dep.name() << " trial " << trial;
                        ++checks;
                    }
                }
            }
        }
    }
    EXPECT_EQ(checks, 40u * 4 * 2 * 2 * 6);
}

TEST(DepTerms, WholeAvroraRecordMatchesTwoPassReference)
{
    // ~67k epochs: many compaction blocks, and totals near 2^54 ticks
    // where any change in summation order shows in the last bits.
    exp::RunOptions ro;
    ro.mode = exp::SimMode::Sampled;
    const auto out = exp::runFixed(wl::benchmarkByName("avrora"),
                                   Frequency::ghz(1.0), ro);
    const std::vector<Epoch> &epochs = out.record.epochs;
    ASSERT_GT(epochs.size(), 10'000u);
    for (bool across : {false, true}) {
        const ModelSpec spec{BaseEstimator::Crit, true};
        DepPredictor dep(spec, across);
        for (std::uint32_t mhz : {1000u, 2125u, 4000u}) {
            const double ratio = 1000.0 / mhz;
            EXPECT_EQ(dep.predict(out.record, Frequency::mhz(mhz)),
                      referenceRange(epochs, 0, epochs.size(), spec,
                                     across, ratio))
                << dep.name() << " at " << mhz << " MHz";
        }
    }
}

TEST(DepTerms, EmptySpanPredictsZero)
{
    sim::Rng rng(7);
    const RunRecord rec = randomRecord(rng, 10);
    const std::vector<Epoch> &epochs = rec.epochs;
    DepPredictor dep({BaseEstimator::Crit, true});
    EXPECT_EQ(dep.predictEpochRange(epochs, 5, 5, 0.5), 0u);
    EXPECT_EQ(dep.predictEpochRange(epochs, 12, 20, 0.5), 0u);
    EpochTerms terms;
    dep.compactEpochs(epochs, 0, 10, terms);
    dep.compactEpochs(epochs, 3, 3, terms);
    EXPECT_TRUE(terms.epochs.empty());
    EXPECT_TRUE(terms.terms.empty());
    EXPECT_EQ(dep.predictTerms(terms, 2.0), 0u);
}

namespace {

/**
 * A manager that audits each of its own slowdown predictions against
 * predictEpochRange over the same quantum, recomputed from scratch.
 */
class AuditingManager : public mgr::EnergyManager
{
  public:
    AuditingManager(os::System &sys, RunRecorder &rec,
                    const power::VfTable &table,
                    const mgr::ManagerConfig &cfg)
        : EnergyManager(sys, rec, table, cfg), _sys(sys), _rec(rec),
          _table(table)
    {
    }

    mutable std::uint64_t checks = 0;
    mutable std::uint64_t mismatches = 0;

  protected:
    double
    predictSlowdown(std::size_t first, std::size_t last, Tick t_ref,
                    double r_cand, bool &used_epochs) const override
    {
        const double got = EnergyManager::predictSlowdown(
            first, last, t_ref, r_cand, used_epochs);
        if (used_epochs) {
            const DepPredictor dep({BaseEstimator::Crit, true}, true);
            const double r_max =
                static_cast<double>(_sys.frequency().toMHz()) /
                static_cast<double>(_table.highest().toMHz());
            const Tick ref_t =
                dep.predictEpochRange(_rec.epochs(), first, last, r_max);
            const Tick ref_p =
                dep.predictEpochRange(_rec.epochs(), first, last, r_cand);
            const double ref = static_cast<double>(ref_p) /
                                   static_cast<double>(ref_t) -
                               1.0;
            ++checks;
            mismatches += ref_t != t_ref || !sameBits(ref, got);
        }
        return got;
    }

  private:
    os::System &_sys;
    RunRecorder &_rec;
    const power::VfTable &_table;
};

} // namespace

TEST(DepTerms, ManagerQuantaMatchPredictEpochRangeOnAvrora)
{
    const power::VfTable table = power::VfTable::haswell();
    wl::BenchInstance inst =
        wl::buildBenchmark(wl::benchmarkByName("avrora"),
                           wl::defaultSystemConfig(table.highest()));
    RunRecorder rec(*inst.sys);
    inst.sys->addListener(&rec);
    AuditingManager manager(*inst.sys, rec, table, mgr::ManagerConfig{});
    manager.attach();
    ASSERT_TRUE(inst.sys->run().finished);
    EXPECT_GT(manager.checks, 1000u);
    EXPECT_EQ(manager.mismatches, 0u);
}
