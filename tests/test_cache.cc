/**
 * @file
 * Unit tests for the cache and cache-hierarchy models.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "sim/rng.hh"
#include "uarch/cache.hh"

using namespace dvfs;
using namespace dvfs::uarch;

namespace {

CacheConfig
tinyCache()
{
    // 4 sets x 2 ways x 64 B lines = 512 B.
    return CacheConfig{512, 2, 64, 2};
}

} // namespace

TEST(Cache, MissThenHit)
{
    Cache c("t", tinyCache());
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.access(0x1000, false).hit);
    EXPECT_TRUE(c.probe(0x1000));
    EXPECT_FALSE(c.probe(0x2000));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, SameLineDifferentByteOffsets)
{
    Cache c("t", tinyCache());
    c.access(0x1000, false);
    EXPECT_TRUE(c.access(0x1037, false).hit);  // same 64B line
    EXPECT_FALSE(c.access(0x1040, false).hit); // next line
}

TEST(Cache, LruEvictsOldest)
{
    Cache c("t", tinyCache());
    // Three lines mapping to the same set (set stride = 4 lines).
    std::uint64_t a = 0, b = 4 * 64, d = 8 * 64;
    c.access(a, false);
    c.access(b, false);
    c.access(a, false);        // refresh a; b is now LRU
    auto r = c.access(d, false);
    EXPECT_FALSE(r.hit);
    EXPECT_TRUE(c.probe(a));
    EXPECT_FALSE(c.probe(b));  // evicted
    EXPECT_TRUE(c.probe(d));
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    Cache c("t", tinyCache());
    std::uint64_t a = 0, b = 4 * 64, d = 8 * 64;
    c.access(a, true);   // dirty
    c.access(b, false);
    auto r = c.access(d, false);  // evicts a (LRU)
    ASSERT_TRUE(r.writeback.has_value());
    EXPECT_EQ(*r.writeback, a);
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(Cache, CleanEvictionHasNoWriteback)
{
    Cache c("t", tinyCache());
    std::uint64_t a = 0, b = 4 * 64, d = 8 * 64;
    c.access(a, false);
    c.access(b, false);
    auto r = c.access(d, false);
    EXPECT_FALSE(r.writeback.has_value());
}

TEST(Cache, DirtyBitSticksAcrossHits)
{
    Cache c("t", tinyCache());
    std::uint64_t a = 0, b = 4 * 64, d = 8 * 64;
    c.access(a, true);
    c.access(a, false);  // read hit must not clear dirty
    c.access(b, false);
    c.access(a, false);  // refresh a; b LRU
    auto r = c.access(d, false);
    EXPECT_FALSE(r.writeback.has_value());  // b was clean
    auto r2 = c.access(b, false);           // evicts a or d
    // a is dirty; if a is the victim we must see its writeback.
    if (r2.writeback) {
        EXPECT_EQ(*r2.writeback, a);
    }
}

TEST(Cache, ResetDropsContents)
{
    Cache c("t", tinyCache());
    c.access(0x40, true);
    c.reset();
    EXPECT_FALSE(c.probe(0x40));
    EXPECT_EQ(c.hits(), 0u);
}

namespace {

/** Reference touchWay: find w's nibble by a linear search. */
void
touchWayByScan(std::uint64_t &ord, std::uint32_t w)
{
    unsigned p = 0;
    while (((ord >> (4 * p)) & 0xF) != w)
        ++p;
    const std::uint64_t low = ord & ((std::uint64_t{1} << (4 * p)) - 1);
    const unsigned sh = 4 * p + 4;
    const std::uint64_t high = p == 15 ? 0 : (ord >> sh) << sh;
    ord = high | (low << 4) | w;
}

} // namespace

TEST(Cache, BranchlessTouchWayMatchesLinearScan)
{
    sim::Rng rng(7);
    for (std::uint32_t assoc : {4u, 8u, 16u}) {
        std::uint64_t fast = Cache::identityOrder(assoc);
        std::uint64_t slow = fast;
        for (int step = 0; step < 20000; ++step) {
            // Bias toward the tail so deep positions (p == assoc-1,
            // incl. the p == 15 shift edge) are hit often.
            const std::uint32_t w =
                rng.nextBool(0.3)
                    ? static_cast<std::uint32_t>(
                          (slow >> (4 * (assoc - 1))) & 0xF)
                    : static_cast<std::uint32_t>(rng.nextBounded(assoc));
            Cache::touchWay(fast, w);
            touchWayByScan(slow, w);
            ASSERT_EQ(fast, slow) << "assoc " << assoc << " step " << step;
        }
    }
}

TEST(CacheDeathTest, RejectsBadGeometry)
{
    EXPECT_EXIT(Cache("x", CacheConfig{512, 3, 64, 1}),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(Cache("x", CacheConfig{512, 2, 48, 1}),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(Cache("x", CacheConfig{512, 0, 64, 1}),
                ::testing::ExitedWithCode(1), "");
}

// ------------------------------------------------------------------
// Hierarchy

class HierarchyTest : public ::testing::Test
{
  protected:
    HierarchyTest()
        : uncore("uncore", Frequency::mhz(1500)),
          mem(2, HierarchyConfig{}, dram, uncore)
    {
    }

    Dram dram;
    FreqDomain uncore;
    CacheHierarchy mem;
    Frequency f1 = Frequency::ghz(1.0);
    Frequency f4 = Frequency::ghz(4.0);
};

TEST_F(HierarchyTest, ColdLoadGoesToDram)
{
    auto out = mem.load(0, 0x10000, 0, f1);
    EXPECT_EQ(out.level, HitLevel::Dram);
    EXPECT_GT(out.memLatency, mem.l3HitTicks());
}

TEST_F(HierarchyTest, SecondLoadHitsL1)
{
    mem.load(0, 0x10000, 0, f1);
    auto out = mem.load(0, 0x10000, 1000, f1);
    EXPECT_EQ(out.level, HitLevel::L1);
    EXPECT_EQ(out.memLatency, 0u);
    EXPECT_EQ(out.completion, 1000u);
}

TEST_F(HierarchyTest, OtherCoreHitsSharedL3)
{
    mem.load(0, 0x10000, 0, f1);
    auto out = mem.load(1, 0x10000, 1000, f1);
    EXPECT_EQ(out.level, HitLevel::L3);
    EXPECT_EQ(out.memLatency,
              mem.l2HitTicks(f1) + mem.l3HitTicks());
}

TEST_F(HierarchyTest, L2HitLatencyScalesWithCoreClock)
{
    EXPECT_EQ(mem.l2HitTicks(f1), 4 * mem.l2HitTicks(f4));
}

TEST_F(HierarchyTest, L3HitLatencyIsFrequencyInvariant)
{
    Tick l3 = mem.l3HitTicks();
    // 40 uncore cycles at 1.5 GHz = 26.67 ns, independent of core f.
    EXPECT_NEAR(ticksToNs(l3), 40.0 / 1.5, 0.01);
}

TEST_F(HierarchyTest, L1EvictionFallsToL2)
{
    // Fill one L1 set (4 ways; set stride = 128 lines for 32KB/4-way).
    const std::uint64_t stride = 128 * 64;
    for (int i = 0; i < 5; ++i)
        mem.load(0, 0x100000 + static_cast<std::uint64_t>(i) * stride, 0,
                 f1);
    // The first line left L1 but must still be in L2.
    auto out = mem.load(0, 0x100000, 50000, f1);
    EXPECT_EQ(out.level, HitLevel::L2);
}

TEST_F(HierarchyTest, StoreLineOnChipDrainsInstantly)
{
    mem.load(0, 0x20000, 0, f1);  // bring the line on chip
    Tick done = mem.storeLine(0, 0x20000, 1000);
    EXPECT_EQ(done, 1000u);
}

TEST_F(HierarchyTest, StoreMissesDrainAtWritePortRate)
{
    // Cold lines: each drain advances the per-core write port.
    Tick d1 = mem.storeLine(0, 0x1000000, 0);
    Tick d2 = mem.storeLine(0, 0x1000040, 0);
    Tick service = nsToTicks(mem.config().writeDrainNs);
    EXPECT_EQ(d1, service);
    EXPECT_EQ(d2, 2 * service);
}

TEST_F(HierarchyTest, WritePortsArePerCore)
{
    Tick a = mem.storeLine(0, 0x2000000, 0);
    Tick b = mem.storeLine(1, 0x3000000, 0);
    EXPECT_EQ(a, b);  // independent ports: no cross-core stacking
}

TEST_F(HierarchyTest, ResetRestoresColdState)
{
    mem.load(0, 0x10000, 0, f1);
    mem.reset();
    auto out = mem.load(0, 0x10000, 0, f1);
    EXPECT_EQ(out.level, HitLevel::Dram);
}

TEST(HitLevelNames, AreStable)
{
    EXPECT_STREQ(hitLevelName(HitLevel::L1), "L1");
    EXPECT_STREQ(hitLevelName(HitLevel::L2), "L2");
    EXPECT_STREQ(hitLevelName(HitLevel::L3), "L3");
    EXPECT_STREQ(hitLevelName(HitLevel::Dram), "DRAM");
}

// ------------------------------------------------------------------
// Two-phase store bursts vs the per-line walk

namespace {

using StoreTags = CacheHierarchy::StoreTags;

/**
 * The per-line store walk: the line's L1 install, its L1 dirty
 * victim's L2 install and that one's L2 dirty victim's L3 entry, then
 * the line's own L3 install. The reference the tag phase must match.
 */
StoreTags
perLineTags(CacheHierarchy &mem, std::uint32_t core, std::uint64_t addr)
{
    auto r1 = mem.l1d(core).access(addr, true);
    if (r1.writeback) {
        auto r2 = mem.l2(core).access(*r1.writeback, true);
        if (r2.writeback)
            mem.l3().access(*r2.writeback, true);
    }
    auto r3 = mem.l3().access(addr, true);
    StoreTags t;
    t.onChip = r3.hit;
    t.victimDirty = r3.writeback.has_value();
    t.hasVictim = t.victimDirty || r3.evictedClean.has_value();
    t.victim = r3.writeback.value_or(r3.evictedClean.value_or(0));
    return t;
}

/** One hierarchy with its own DRAM and uncore clock. */
struct StoreRig {
    StoreRig(const HierarchyConfig &cfg, bool warm)
        : uncore("uncore", Frequency::mhz(1500)),
          mem(kCores, cfg, dram, uncore)
    {
        if (warm)
            mem.enableWarmOverlay();
    }

    static constexpr std::uint32_t kCores = 3;
    Dram dram;
    FreqDomain uncore;
    CacheHierarchy mem;
};

/**
 * @p bursts random bursts of 1-256 lines on several cores, each
 * walked whole (storeBurstTags, then storeLineTimed per line) on one
 * rig and line by line on a reference rig, with the same loads and
 * warm ranges in between. Without the overlay the reference also times
 * each line itself (write port and dirty-victim DRAM write), so the
 * timed phase is checked too.
 */
void
runStoreBurstEquivalence(const HierarchyConfig &cfg, bool warm, int bursts)
{
    StoreRig burst(cfg, warm), ref(cfg, warm);
    const Tick drain = nsToTicks(cfg.writeDrainNs);
    std::vector<Tick> refPort(StoreRig::kCores, 0);
    std::set<std::uint64_t> touched;
    sim::Rng rng(warm ? 11 : 5);
    // Two heap-like regions plus a small hot one, so bursts re-store
    // lines still on chip as well as stream past every level.
    const std::uint64_t regions[] = {0x100000000ULL, 0x200000000ULL,
                                     0x300000000ULL};
    Tick t = 0;
    std::vector<StoreTags> tags;
    for (int b = 0; b < bursts; ++b) {
        const auto core =
            static_cast<std::uint32_t>(rng.nextBounded(StoreRig::kCores));
        const auto lines = static_cast<std::uint32_t>(rng.nextRange(1, 256));
        const std::uint64_t region = regions[rng.nextBounded(3)];
        const std::uint64_t span = region == regions[2] ? 512 : 1 << 16;
        const std::uint64_t base = region + rng.nextBounded(span) * 64;

        tags.assign(lines, StoreTags{});
        burst.mem.storeBurstTags(core, base, tags);
        for (std::uint32_t i = 0; i < lines; ++i) {
            const std::uint64_t addr = base + i * 64ULL;
            touched.insert(addr);
            t += rng.nextBounded(3) * 4000;
            const Tick got = burst.mem.storeLineTimed(core, addr, tags[i], t);
            const StoreTags rt = perLineTags(ref.mem, core, addr);
            Tick want;
            if (warm) {
                want = ref.mem.storeLineTimed(core, addr, rt, t);
            } else if (rt.onChip) {
                want = t;
            } else {
                if (rt.victimDirty)
                    ref.dram.write(rt.victim, t);
                refPort[core] = std::max(refPort[core], t) + drain;
                want = refPort[core];
            }
            ASSERT_EQ(got, want) << "burst " << b << " line " << i;
        }

        // Loads and fast-forwarded bursts between stores, identical on
        // both sides.
        for (int k = 0; k < 8; ++k) {
            const std::uint64_t addr =
                regions[rng.nextBounded(3)] + rng.nextBounded(1 << 16) * 64;
            touched.insert(addr);
            const auto lcore =
                static_cast<std::uint32_t>(rng.nextBounded(StoreRig::kCores));
            t += 1000;
            const auto a = burst.mem.load(lcore, addr, t, Frequency::ghz(2.0));
            const auto r = ref.mem.load(lcore, addr, t, Frequency::ghz(2.0));
            ASSERT_EQ(a.completion, r.completion);
        }
        if (warm && rng.nextBool(0.2)) {
            const std::uint64_t wbase =
                regions[rng.nextBounded(2)] + rng.nextBounded(1 << 16) * 64;
            burst.mem.warmLines(wbase, 512);
            ref.mem.warmLines(wbase, 512);
        }
    }

    auto sameStats = [](Cache &a, Cache &b) {
        EXPECT_EQ(a.hits(), b.hits()) << a.name();
        EXPECT_EQ(a.misses(), b.misses()) << a.name();
        EXPECT_EQ(a.writebacks(), b.writebacks()) << a.name();
    };
    for (std::uint32_t c = 0; c < StoreRig::kCores; ++c) {
        sameStats(burst.mem.l1d(c), ref.mem.l1d(c));
        sameStats(burst.mem.l2(c), ref.mem.l2(c));
    }
    sameStats(burst.mem.l3(), ref.mem.l3());
    EXPECT_GT(burst.mem.l3().writebacks(), 0u);
    std::size_t resident = 0;
    for (std::uint64_t addr : touched) {
        for (std::uint32_t c = 0; c < StoreRig::kCores; ++c) {
            ASSERT_EQ(burst.mem.l1d(c).probe(addr), ref.mem.l1d(c).probe(addr));
            ASSERT_EQ(burst.mem.l2(c).probe(addr), ref.mem.l2(c).probe(addr));
        }
        ASSERT_EQ(burst.mem.l3().probe(addr), ref.mem.l3().probe(addr));
        resident += burst.mem.l3().probe(addr);
    }
    EXPECT_GT(resident, 0u);
    EXPECT_EQ(burst.dram.writes(), ref.dram.writes());
    EXPECT_EQ(burst.dram.reads(), ref.dram.reads());
    EXPECT_EQ(burst.dram.meanWriteLatencyNs(), ref.dram.meanWriteLatencyNs());
    EXPECT_GT(burst.dram.writes(), 0u);
    EXPECT_EQ(burst.mem.warmHits(), ref.mem.warmHits());
    if (warm) {
        EXPECT_GT(burst.mem.warmHits(), 0u);
    }
}

/** A small hierarchy: every level evicts dirty lines within a burst. */
HierarchyConfig
smallHierarchy()
{
    HierarchyConfig cfg;
    cfg.l1d = CacheConfig{4 * 1024, 4, 64, 2};
    cfg.l2 = CacheConfig{16 * 1024, 8, 64, 11};
    cfg.l3 = CacheConfig{64 * 1024, 16, 64, 40};
    return cfg;
}

} // namespace

TEST(StoreBurst, TwoPhaseWalkMatchesPerLineWalk)
{
    runStoreBurstEquivalence(smallHierarchy(), false, 400);
    // Enough lines to cycle the default 4 MB L3 about twice.
    runStoreBurstEquivalence(HierarchyConfig{}, false, 1200);
}

TEST(StoreBurst, TwoPhaseWalkMatchesPerLineWalkWithWarmOverlay)
{
    runStoreBurstEquivalence(smallHierarchy(), true, 400);
    runStoreBurstEquivalence(HierarchyConfig{}, true, 1200);
}
