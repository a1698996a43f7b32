/**
 * @file
 * Tests for the epoch decomposition (RunRecorder) — the DEP kernel
 * module's bookkeeping.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "fault/fault_plan.hh"
#include "fault/injector.hh"
#include "pred/record.hh"
#include "test_util.hh"
#include "wl/builder.hh"
#include "wl/suite.hh"

using namespace dvfs;
using namespace dvfs::os;
using namespace dvfs::pred;
using namespace dvfs::test;

namespace {

SystemConfig
smallConfig(std::uint32_t cores = 2)
{
    SystemConfig cfg;
    cfg.cores = cores;
    cfg.coreFreq = Frequency::ghz(1.0);
    return cfg;
}

/**
 * Checks, at every sync event, the rule the recorder's epoch close
 * relies on: the threads marked Running are exactly the scheduler's
 * core occupants.
 */
class OccupancyAudit : public SyncListener
{
  public:
    void
    onSyncEvent(const SyncEvent &, const System &sys) override
    {
        std::vector<ThreadId> occupants, running;
        const Scheduler &sched = sys.scheduler();
        for (std::uint32_t c = 0; c < sched.cores(); ++c) {
            if (sched.occupant(c) != kNoThread)
                occupants.push_back(sched.occupant(c));
        }
        std::sort(occupants.begin(), occupants.end());
        for (std::size_t tid = 0; tid < sys.numThreads(); ++tid) {
            if (sys.thread(static_cast<ThreadId>(tid)).state ==
                ThreadState::Running)
                running.push_back(static_cast<ThreadId>(tid));
        }
        ++events;
        mismatches += occupants != running;
    }

    std::uint64_t events = 0;
    std::uint64_t mismatches = 0;
};

/** Run @p inst with an occupancy audit and the recorder attached. */
OccupancyAudit
auditRun(wl::BenchInstance &inst)
{
    OccupancyAudit audit;
    inst.sys->addListener(&audit);
    RunRecorder rec(*inst.sys);
    inst.sys->addListener(&rec);
    EXPECT_TRUE(inst.sys->run().finished);
    return audit;
}

} // namespace

TEST(RunRecorder, EpochsPartitionTheRun)
{
    System sys(smallConfig());
    SyncId m = sys.createMutex();
    std::vector<Action> script = {
        Action::makeCompute(50'000), Action::makeMutexLock(m),
        Action::makeCompute(100'000), Action::makeMutexUnlock(m),
        Action::makeCompute(20'000)};
    ThreadId a = addScript(sys, "a", script);
    ThreadId b = addScript(sys, "b", script);
    ThreadId main = addScript(sys, "main",
                              {Action::makeJoin(a), Action::makeJoin(b)});
    sys.setMainThread(main);

    RunRecorder rec(sys);
    sys.addListener(&rec);
    auto res = sys.run();
    auto record = rec.finalize();

    ASSERT_FALSE(record.epochs.empty());
    EXPECT_EQ(record.epochs.front().start, 0u);
    EXPECT_EQ(record.epochs.back().end, res.totalTime);
    Tick sum = 0;
    Tick prev_end = 0;
    for (const auto &ep : record.epochs) {
        EXPECT_EQ(ep.start, prev_end) << "epochs must tile the run";
        EXPECT_GT(ep.end, ep.start);
        prev_end = ep.end;
        sum += ep.duration();
    }
    EXPECT_EQ(sum, res.totalTime);
}

TEST(RunRecorder, StallTidSetOnSleepBoundaries)
{
    System sys(smallConfig(1));
    SyncId f = sys.createFutex();
    ThreadId a = addScript(sys, "a", {Action::makeCompute(10'000),
                                      Action::makeFutexWait(f)});
    ThreadId main = sys.addThread(
        "main", std::make_unique<LambdaProgram>(
                    [&sys, f, a, step = 0](ThreadContext &) mutable
                    -> Action {
                        switch (step++) {
                          case 0:
                            return Action::makeCompute(100'000);
                          case 1:
                            sys.futexWakeAll(f);
                            return Action::makeJoin(a);
                          default:
                            return Action::makeExit();
                        }
                    }));
    sys.setMainThread(main);

    RunRecorder rec(sys);
    sys.addListener(&rec);
    sys.run();
    auto record = rec.finalize();

    bool saw_stall = false;
    for (const auto &ep : record.epochs) {
        if (ep.boundary == SyncEventKind::FutexWait) {
            EXPECT_EQ(ep.stallTid, a);
            saw_stall = true;
        } else {
            EXPECT_EQ(ep.stallTid, kNoThread);
        }
    }
    EXPECT_TRUE(saw_stall);
}

TEST(RunRecorder, ActiveSetMatchesScheduledThreads)
{
    // One core: at any epoch at most one thread can be active.
    System sys(smallConfig(1));
    std::vector<Action> script(4, Action::makeCompute(30'000));
    ThreadId a = addScript(sys, "a", script);
    ThreadId main = addScript(sys, "main", {Action::makeJoin(a)});
    sys.setMainThread(main);

    RunRecorder rec(sys);
    sys.addListener(&rec);
    sys.run();
    auto record = rec.finalize();

    for (const auto &ep : record.epochs)
        EXPECT_LE(ep.active.size(), 1u);
}

TEST(RunRecorder, BusyDeltasSumToThreadTotals)
{
    System sys(smallConfig());
    SyncId m = sys.createMutex();
    std::vector<Action> script = {
        Action::makeCompute(40'000), Action::makeMutexLock(m),
        Action::makeCompute(60'000), Action::makeMutexUnlock(m)};
    ThreadId a = addScript(sys, "a", script);
    ThreadId b = addScript(sys, "b", script);
    ThreadId main = addScript(sys, "main",
                              {Action::makeJoin(a), Action::makeJoin(b)});
    sys.setMainThread(main);

    RunRecorder rec(sys);
    sys.addListener(&rec);
    sys.run();
    auto record = rec.finalize();

    std::vector<Tick> busy(sys.numThreads(), 0);
    for (const auto &ep : record.epochs) {
        for (const auto &et : ep.active)
            busy[et.tid] += et.delta.busyTime;
    }
    // All busy time is attributed to epochs where the thread was
    // active (counters commit at action completion, and completion
    // while running is always inside an active epoch).
    for (std::size_t t = 0; t < sys.numThreads(); ++t) {
        EXPECT_EQ(busy[t],
                  record.threads[t].totals.busyTime)
            << "thread " << t;
    }
}

TEST(RunRecorder, KeepEventsRetainsRawTrace)
{
    System sys(smallConfig());
    ThreadId main = addScript(sys, "main", {Action::makeCompute(1000)});
    sys.setMainThread(main);
    RunRecorder rec(sys, /*keep_events=*/true);
    sys.addListener(&rec);
    sys.run();
    auto record = rec.finalize();
    EXPECT_FALSE(record.events.empty());
    EXPECT_EQ(record.events.back().kind, SyncEventKind::RunEnd);
}

TEST(RunRecorder, ThreadSummariesComplete)
{
    System sys(smallConfig());
    ThreadId a = addScript(sys, "a", {Action::makeCompute(5'000)});
    ThreadId main = addScript(sys, "main", {Action::makeJoin(a)});
    sys.setMainThread(main);
    RunRecorder rec(sys);
    sys.addListener(&rec);
    auto res = sys.run();
    auto record = rec.finalize();

    ASSERT_EQ(record.threads.size(), 2u);
    EXPECT_EQ(record.totalTime, res.totalTime);
    EXPECT_EQ(record.baseFreq, Frequency::ghz(1.0));
    for (const auto &t : record.threads) {
        EXPECT_LE(t.spawnTick, t.exitTick);
        EXPECT_LE(t.exitTick, res.totalTime);
    }
}

TEST(RunRecorderDeathTest, DoubleFinalizeIsFatal)
{
    System sys(smallConfig());
    ThreadId main = addScript(sys, "main", {});
    sys.setMainThread(main);
    RunRecorder rec(sys);
    sys.addListener(&rec);
    sys.run();
    rec.finalize();
    EXPECT_EXIT(rec.finalize(), ::testing::ExitedWithCode(1), "twice");
}

TEST(RunRecorder, RunningThreadsAreCoreOccupantsOnAvrora)
{
    // avrora oversubscribes the cores: every boundary kind (timeslice
    // SchedOut, lock handoffs, GC parks) occurs, exact and sampled.
    for (bool sampled : {false, true}) {
        wl::BenchInstance inst =
            wl::buildBenchmark(wl::benchmarkByName("avrora"),
                               wl::defaultSystemConfig(Frequency::ghz(1.0)));
        if (sampled)
            inst.sys->enableSampling(sim::SamplingConfig{});
        const OccupancyAudit audit = auditRun(inst);
        EXPECT_GT(audit.events, 100'000u) << "sampled=" << sampled;
        EXPECT_EQ(audit.mismatches, 0u) << "sampled=" << sampled;
    }
}

TEST(RunRecorder, RunningThreadsAreCoreOccupantsUnderPreemptJitter)
{
    // 8 threads on 2 cores, with off-schedule preemptions and
    // spurious wakeups injected at action boundaries.
    os::SystemConfig cfg = wl::defaultSystemConfig(Frequency::ghz(2.0));
    cfg.cores = 2;
    wl::BenchInstance inst =
        wl::buildBenchmark(wl::syntheticSmall(8, 120), cfg);
    fault::FaultConfig fc;
    fc.preemptProb = 0.2;
    fc.preemptMinSpacing = kTicksPerUs;
    fc.spuriousWakeMeanInterval = 20 * kTicksPerUs;
    fault::FaultPlan plan(fc);
    fault::installFaults(*inst.sys, plan, inst.runtime.get());
    const OccupancyAudit audit = auditRun(inst);
    EXPECT_GT(plan.totalInjected(), 0u);
    EXPECT_GT(audit.events, 1000u);
    EXPECT_EQ(audit.mismatches, 0u);
}
