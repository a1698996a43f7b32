/**
 * @file
 * InvariantAuditor: a healthy machine audits clean, a deadlocked one
 * produces a structured watchdog diagnostic instead of hanging, the
 * fault-injected paths stay invariant-clean too, and so do sampled
 * runs, whose gaps fast-forward time, epochs and GC work.
 */

#include <gtest/gtest.h>

#include <type_traits>

#include "exp/experiment.hh"
#include "exp/sweep/fingerprint.hh"
#include "exp/sweep/sweep.hh"
#include "fault/auditor.hh"
#include "fault/fault_plan.hh"
#include "fault/injector.hh"
#include "mgr/energy_manager.hh"
#include "test_util.hh"
#include "wl/builder.hh"
#include "wl/suite.hh"

using namespace dvfs;
using namespace dvfs::test;

TEST(Auditor, CleanRunAuditsClean)
{
    power::VfTable table = power::VfTable::haswell();
    os::SystemConfig cfg = wl::defaultSystemConfig(table.highest());
    wl::BenchInstance inst =
        wl::buildBenchmark(wl::syntheticSmall(4, 200), cfg);

    pred::RunRecorder rec(*inst.sys);
    inst.sys->addListener(&rec);

    fault::InvariantAuditor auditor(*inst.sys);
    auditor.observeEpochs(&rec);
    auditor.attach();

    ASSERT_TRUE(inst.sys->run().finished);
    EXPECT_TRUE(auditor.clean()) << (auditor.violations().empty()
                                         ? ""
                                         : auditor.violations()[0].message);
    EXPECT_GT(auditor.audits(), 0u);
    EXPECT_GT(auditor.checksRun(), auditor.audits());
    EXPECT_FALSE(auditor.watchdog().fired);
}

TEST(Auditor, FaultInjectedRunStaysInvariantClean)
{
    // Faults disturb timing, never bookkeeping: every invariant must
    // survive all classes firing at once.
    power::VfTable table = power::VfTable::haswell();
    os::SystemConfig cfg = wl::defaultSystemConfig(table.highest());
    wl::BenchInstance inst =
        wl::buildBenchmark(wl::syntheticSmall(4, 200), cfg);

    pred::RunRecorder rec(*inst.sys);
    inst.sys->addListener(&rec);

    fault::FaultConfig fc;
    fc.dramSpikeProb = 0.05;
    fc.dramBankStallProb = 0.02;
    fc.spuriousWakeMeanInterval = 20 * kTicksPerUs;
    fc.preemptProb = 0.1;
    fc.gcInflateProb = 1.0;
    fault::FaultPlan plan(fc);
    fault::installFaults(*inst.sys, plan, inst.runtime.get());

    fault::InvariantAuditor auditor(*inst.sys);
    auditor.observeEpochs(&rec);
    auditor.attach();

    ASSERT_TRUE(inst.sys->run().finished);
    EXPECT_TRUE(auditor.clean()) << (auditor.violations().empty()
                                         ? ""
                                         : auditor.violations()[0].message);
}

TEST(Auditor, WatchdogConvertsDeadlockIntoDiagnostic)
{
    power::VfTable table = power::VfTable::haswell();
    os::SystemConfig cfg = wl::defaultSystemConfig(table.highest());
    os::System sys(cfg);

    // Two waiters park on a futex nobody wakes; the main thread joins
    // them. The energy manager keeps the event queue alive forever, so
    // without the watchdog this run would never return.
    os::SyncId dead = sys.createFutex();
    os::ThreadId a = addScript(sys, "waiter-a",
                               {os::Action::makeCompute(10'000),
                                os::Action::makeFutexWait(dead)});
    os::ThreadId main_tid =
        addScript(sys, "main", {os::Action::makeJoin(a)});
    sys.setMainThread(main_tid);

    pred::RunRecorder rec(sys);
    sys.addListener(&rec);

    fault::AuditorConfig acfg;
    acfg.watchdogTimeout = 500 * kTicksPerUs;
    fault::InvariantAuditor auditor(sys, acfg);
    auditor.observeEpochs(&rec);
    auditor.attach();

    mgr::EnergyManager manager(sys, rec, table, mgr::ManagerConfig{});
    manager.attach();

    os::RunResult res = sys.run();

    EXPECT_FALSE(res.finished);
    EXPECT_TRUE(res.aborted);
    ASSERT_TRUE(auditor.watchdog().fired);
    EXPECT_EQ(auditor.watchdog().blockedThreads.size(), 2u);
    EXPECT_NE(auditor.watchdog().message.find("waiter-a"),
              std::string::npos);
    EXPECT_NE(res.abortReason.find("watchdog"), std::string::npos);
    EXPECT_GE(auditor.watchdog().tick,
              auditor.watchdog().stalledSince + acfg.watchdogTimeout);
}

TEST(Auditor, WatchdogSparesSlowButLiveRuns)
{
    // A run that is merely slow (tight watchdog, healthy workload)
    // must not trip the watchdog: instructions keep retiring.
    power::VfTable table = power::VfTable::haswell();
    os::SystemConfig cfg = wl::defaultSystemConfig(table.highest());
    wl::BenchInstance inst =
        wl::buildBenchmark(wl::syntheticSmall(2, 100), cfg);

    pred::RunRecorder rec(*inst.sys);
    inst.sys->addListener(&rec);

    fault::AuditorConfig acfg;
    acfg.interval = 5 * kTicksPerUs;
    acfg.watchdogTimeout = 20 * kTicksPerUs;
    fault::InvariantAuditor auditor(*inst.sys, acfg);
    auditor.attach();

    ASSERT_TRUE(inst.sys->run().finished);
    EXPECT_FALSE(auditor.watchdog().fired);
}

namespace {

/**
 * @p out, a sampled run with a pure audit, audited clean and matches
 * @p ref, the same run without it, in everything but the event count.
 */
template <class Out>
void
expectAuditedCleanAndUnchanged(Out out, const Out &ref,
                               const std::string &cell)
{
    EXPECT_EQ(ref.audit.audits, 0u) << cell;
    EXPECT_GT(out.sampling.ffActions, 0u) << cell;
    // runFixed/runManaged return only runs that finished, so the
    // watchdog, which stops the run when it fires, stayed silent.
    EXPECT_GT(out.audit.audits, 0u) << cell;
    EXPECT_TRUE(out.audit.violations.empty())
        << cell << ": "
        << (out.audit.violations.empty()
                ? ""
                : out.audit.violations[0].check + ": " +
                      out.audit.violations[0].message);
    if constexpr (std::is_same_v<Out, exp::FixedRunOutput>)
        out.events = ref.events;  // the auditor's own events
    EXPECT_EQ(exp::sweep::fingerprintRun(out),
              exp::sweep::fingerprintRun(ref))
        << cell;
}

} // namespace

TEST(Auditor, SampledFig9AndFig10CellsAuditClean)
{
    // The fig9 fixed cells, and the fig10 managed cells with their
    // fixed-at-highest baselines, at each figure's seed and sampling
    // recipe. Sampled gaps fast-forward time, epochs and GC work; the
    // invariants must hold across them.
    const auto table = power::VfTable::haswell();
    std::vector<wl::WorkloadParams> suite = wl::dacapoSuite();
    suite.resize(4);

    exp::RunOptions fig9;
    fig9.seed = exp::sweep::SweepSpec::replicateSeeds(42, 1)[0];
    fig9.mode = exp::SimMode::Sampled;

    exp::RunOptions fig10 = fig9;
    fig10.sampling.detailWindow = 10 * kTicksPerUs;
    fig10.sampling.maxGapWindow = 7840 * kTicksPerUs;
    fig10.sampling.driftThresholdPermille = 200;

    auto audited = [](exp::RunOptions o) {
        o.hardened = fault::FaultConfig::none();
        return o;
    };

    for (const auto &params : suite) {
        for (double ghz : {1.0, 2.0, 3.0, 4.0}) {
            const Frequency f = Frequency::ghz(ghz);
            expectAuditedCleanAndUnchanged(
                exp::runFixed(params, f, audited(fig9)),
                exp::runFixed(params, f, fig9),
                params.name + " fixed " + f.toString());
        }
        expectAuditedCleanAndUnchanged(
            exp::runFixed(params, table.highest(), audited(fig10)),
            exp::runFixed(params, table.highest(), fig10),
            params.name + " fig10 baseline");

        const mgr::ManagerConfig mc;
        expectAuditedCleanAndUnchanged(
            exp::runManaged(params, mc, table, audited(fig10)),
            exp::runManaged(params, mc, table, fig10),
            params.name + " managed");
    }
}

TEST(AuditorDeathTest, DegenerateConfigIsFatal)
{
    power::VfTable table = power::VfTable::haswell();
    os::System sys(wl::defaultSystemConfig(table.highest()));

    fault::AuditorConfig zero_interval;
    zero_interval.interval = 0;
    EXPECT_EXIT(fault::InvariantAuditor(sys, zero_interval),
                ::testing::ExitedWithCode(1), "interval");

    fault::AuditorConfig short_watchdog;
    short_watchdog.watchdogTimeout = short_watchdog.interval / 2;
    EXPECT_EXIT(fault::InvariantAuditor(sys, short_watchdog),
                ::testing::ExitedWithCode(1), "watchdog");
}

TEST(AuditorDeathTest, DoubleAttachIsFatal)
{
    power::VfTable table = power::VfTable::haswell();
    os::System sys(wl::defaultSystemConfig(table.highest()));
    fault::InvariantAuditor auditor(sys);
    auditor.attach();
    EXPECT_EXIT(auditor.attach(), ::testing::ExitedWithCode(1), "twice");
}
