/**
 * @file
 * Unit tests for the futex table and the scheduler bookkeeping.
 */

#include <gtest/gtest.h>

#include <vector>

#include "os/futex.hh"
#include "os/scheduler.hh"

using namespace dvfs::os;

TEST(FutexTable, AllocateGivesUniqueIds)
{
    FutexTable t;
    SyncId a = t.allocate();
    SyncId b = t.allocate();
    SyncId c = t.allocate();
    EXPECT_NE(a, b);
    EXPECT_NE(b, c);
}

TEST(FutexTable, WakeIsFifo)
{
    FutexTable t;
    SyncId f = t.allocate();
    t.wait(f, 10);
    t.wait(f, 20);
    t.wait(f, 30);
    EXPECT_EQ(t.waiters(f), 3u);

    auto w1 = t.wake(f, 2);
    ASSERT_EQ(w1.size(), 2u);
    EXPECT_EQ(w1[0], 10u);
    EXPECT_EQ(w1[1], 20u);
    EXPECT_EQ(t.waiters(f), 1u);

    auto w2 = t.wake(f, 5);
    ASSERT_EQ(w2.size(), 1u);
    EXPECT_EQ(w2[0], 30u);
    EXPECT_EQ(t.waiters(f), 0u);
}

TEST(FutexTable, WakeOnEmptyFutexReturnsNothing)
{
    FutexTable t;
    SyncId f = t.allocate();
    EXPECT_TRUE(t.wake(f, 1).empty());
    EXPECT_TRUE(t.wake(12345, 1).empty());
}

TEST(FutexTable, LongQueueStaysFifoAcrossPartialWakes)
{
    // More waiters than a mutex or barrier usually holds, with waits
    // and partial wakes interleaved, so the queue grows while it is
    // being drained from the front.
    FutexTable t;
    SyncId f = t.allocate();
    SyncId other = t.allocate();
    t.wait(other, 99);
    for (ThreadId tid = 1; tid <= 6; ++tid)
        t.wait(f, tid);
    EXPECT_EQ(t.waiters(f), 6u);
    EXPECT_EQ(t.totalWaiters(), 7u);

    EXPECT_EQ(t.wake(f, 2), (std::vector<ThreadId>{1, 2}));
    for (ThreadId tid = 7; tid <= 12; ++tid)
        t.wait(f, tid);
    EXPECT_EQ(t.waiters(f), 10u);
    EXPECT_EQ(t.totalWaiters(), 11u);

    std::vector<ThreadId> out;
    EXPECT_EQ(t.wake(f, 3, out), 3u);
    EXPECT_EQ(out, (std::vector<ThreadId>{3, 4, 5}));
    t.wait(f, 13);
    EXPECT_EQ(t.totalWaiters(), 9u);

    EXPECT_EQ(t.wake(f, 100),
              (std::vector<ThreadId>{6, 7, 8, 9, 10, 11, 12, 13}));
    EXPECT_EQ(t.waiters(f), 0u);
    EXPECT_EQ(t.totalWaiters(), 1u);
    EXPECT_EQ(t.wake(other, 1), (std::vector<ThreadId>{99}));
    EXPECT_EQ(t.totalWaiters(), 0u);
}

TEST(FutexTable, TotalWaitersAcrossFutexes)
{
    FutexTable t;
    SyncId a = t.allocate(), b = t.allocate();
    t.wait(a, 1);
    t.wait(a, 2);
    t.wait(b, 3);
    EXPECT_EQ(t.totalWaiters(), 3u);
    t.reset();
    EXPECT_EQ(t.totalWaiters(), 0u);
}

TEST(FutexTableDeathTest, WaitOnInvalidIdPanics)
{
    FutexTable t;
    EXPECT_DEATH(t.wait(kNoSync, 7), "invalid");
}

TEST(Scheduler, AssignAndRelease)
{
    Scheduler s(2);
    EXPECT_EQ(s.cores(), 2u);
    EXPECT_EQ(s.freeCore(), 0);
    s.assign(7, 0);
    EXPECT_EQ(s.occupant(0), 7u);
    EXPECT_EQ(s.freeCore(), 1);
    s.assign(8, 1);
    EXPECT_EQ(s.freeCore(), -1);
    EXPECT_EQ(s.busyCores(), 2u);
    s.release(0);
    EXPECT_EQ(s.freeCore(), 0);
    EXPECT_EQ(s.occupant(0), kNoThread);
}

TEST(Scheduler, ReadyQueueIsFifo)
{
    Scheduler s(1);
    EXPECT_FALSE(s.hasReady());
    EXPECT_EQ(s.popReady(), kNoThread);
    s.enqueueReady(3);
    s.enqueueReady(1);
    s.enqueueReady(2);
    EXPECT_EQ(s.readyCount(), 3u);
    EXPECT_EQ(s.popReady(), 3u);
    EXPECT_EQ(s.popReady(), 1u);
    EXPECT_EQ(s.popReady(), 2u);
    EXPECT_FALSE(s.hasReady());
}

TEST(Scheduler, ResetClears)
{
    Scheduler s(2);
    s.assign(1, 0);
    s.enqueueReady(2);
    s.reset();
    EXPECT_EQ(s.busyCores(), 0u);
    EXPECT_FALSE(s.hasReady());
}

TEST(SchedulerDeathTest, DoubleAssignPanics)
{
    Scheduler s(1);
    s.assign(1, 0);
    EXPECT_DEATH(s.assign(2, 0), "occupied");
}

TEST(SchedulerDeathTest, ReleasingFreeCorePanics)
{
    Scheduler s(1);
    EXPECT_DEATH(s.release(0), "free");
}
