/**
 * @file
 * Property tests for the packed epoch record (pred::EpochArena).
 *
 * Each active thread packs to one header word plus one word per
 * nonzero counter field. These tests check that every entry decodes
 * to exactly what was packed, at edge values too, that an epoch's
 * entries stay contiguous across many blocks, and that views stay
 * valid while an arena or a live recorder keeps appending. The last
 * test pins the packed size of avrora's golden-seed sampled record,
 * so a change that bloats the record fails on any host.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "exp/experiment.hh"
#include "exp/sweep/sweep.hh"
#include "pred/record.hh"
#include "sim/rng.hh"
#include "wl/builder.hh"
#include "wl/suite.hh"

using namespace dvfs;
using namespace dvfs::pred;

namespace {

/** A field value drawn from the codec's edge cases. */
std::uint64_t
edgeValue(sim::Rng &rng)
{
    switch (rng.nextBounded(6)) {
      case 0:
        return 0;
      case 1:
        return 1 + rng.nextBounded(255);
      case 2:
        return std::uint64_t{1} << 32;
      case 3:
        return std::uint64_t{1} << 63;
      case 4:
        return ~std::uint64_t{0};
      default:
        return rng.next();
    }
}

EpochThread
randomThread(sim::Rng &rng, os::ThreadId tid)
{
    uarch::CounterWords w{};
    for (std::uint64_t &f : w)
        f = edgeValue(rng);
    return EpochThread{tid, uarch::fromWords(w)};
}

/** Words one entry packs to: its header plus its nonzero fields. */
std::size_t
packedWords(const EpochThread &et)
{
    std::size_t n = 1;
    for (std::uint64_t f : uarch::toWords(et.delta))
        n += f != 0;
    return n;
}

void
expectSameThreads(const ActiveThreads &view,
                  const std::vector<EpochThread> &want)
{
    ASSERT_EQ(view.size(), want.size());
    std::size_t k = 0;
    for (const EpochThread &got : view) {
        EXPECT_EQ(got.tid, want[k].tid);
        EXPECT_EQ(uarch::toWords(got.delta), uarch::toWords(want[k].delta))
            << "entry " << k;
        ++k;
    }
    EXPECT_EQ(k, want.size());
}

} // namespace

TEST(EpochArena, AllZeroDeltaIsOneHeaderWord)
{
    EpochArena arena;
    const EpochThread zero{7, {}};
    const ActiveThreads view = arena.append({&zero, 1});
    EXPECT_EQ(arena.usedBytes(), 8u);
    const PackedThread e(view.words());
    EXPECT_EQ(e.tid(), 7u);
    EXPECT_EQ(e.mask(), 0u);
    EXPECT_EQ(e.end(), view.words() + 1);
    expectSameThreads(view, {zero});
}

TEST(EpochArena, AllFieldsNonzeroTakeSixteenWords)
{
    uarch::CounterWords w;
    for (unsigned f = 0; f < uarch::kCounterFields; ++f)
        w[f] = f == 0 ? ~std::uint64_t{0} : std::uint64_t{1} << (f * 4);
    const EpochThread full{os::kNoThread - 1, uarch::fromWords(w)};
    EpochArena arena;
    const ActiveThreads view = arena.append({&full, 1});
    EXPECT_EQ(arena.usedBytes(), 16u * 8);
    const PackedThread e(view.words());
    EXPECT_EQ(e.mask(), (1u << uarch::kCounterFields) - 1);
    for (unsigned f = 0; f < uarch::kCounterFields; ++f)
        EXPECT_EQ(e.field(static_cast<uarch::CounterField>(f)), w[f]);
    expectSameThreads(view, {full});
}

TEST(EpochArena, SeededEntriesRoundTripAcrossManyBlocks)
{
    // ~40k entries of edge-value fields: well past the doubling
    // blocks into many fixed-size ones.
    sim::Rng rng(0xe90c4a);
    EpochArena arena;
    std::vector<ActiveThreads> views;
    std::vector<std::vector<EpochThread>> want;
    std::size_t words = 0;
    for (int i = 0; i < 16'000; ++i) {
        std::vector<EpochThread> threads;
        for (os::ThreadId tid = 0; tid < 6; ++tid) {
            if (rng.nextBool(0.4))
                threads.push_back(randomThread(rng, tid));
        }
        std::size_t epoch_words = 0;
        for (const EpochThread &et : threads)
            epoch_words += packedWords(et);
        words += epoch_words;
        views.push_back(arena.append(threads));
        if (!threads.empty()) {
            // Contiguous: the last entry ends where the sizes say.
            const std::uint64_t *w = views.back().words();
            for (std::size_t k = 0; k < threads.size(); ++k)
                w = PackedThread(w).end();
            EXPECT_EQ(w, views.back().words() + epoch_words);
        } else {
            EXPECT_TRUE(views.back().empty());
        }
        want.push_back(std::move(threads));
    }
    EXPECT_EQ(arena.usedBytes(), words * 8);
    EXPECT_GT(arena.bytes(), 20 * EpochArena::kBlockWords * 8);
    // Every view still decodes after all later appends.
    for (std::size_t i = 0; i < views.size(); ++i) {
        SCOPED_TRACE(i);
        expectSameThreads(views[i], want[i]);
        const std::uint64_t *w = views[i].words();
        for (const EpochThread &et : want[i]) {
            const PackedThread e(w);
            const uarch::CounterWords f = uarch::toWords(et.delta);
            for (unsigned k = 0; k < uarch::kCounterFields; ++k)
                ASSERT_EQ(e.field(static_cast<uarch::CounterField>(k)),
                          f[k]);
            w = e.end();
        }
    }
}

TEST(EpochArena, EpochWiderThanABlockGetsItsOwn)
{
    sim::Rng rng(11);
    std::vector<EpochThread> wide;
    for (os::ThreadId tid = 0; tid < 1000; ++tid)
        wide.push_back(randomThread(rng, tid));
    ASSERT_GT(wide.size() * PackedThread::kMaxWords,
              EpochArena::kBlockWords);
    EpochArena arena;
    const EpochThread one = randomThread(rng, 0);
    const ActiveThreads before = arena.append({&one, 1});
    const ActiveThreads view = arena.append(wide);
    const ActiveThreads after = arena.append({&one, 1});
    expectSameThreads(before, {one});
    expectSameThreads(view, wide);
    expectSameThreads(after, {one});
}

TEST(EpochArena, CopiedRecordSharesItsStorage)
{
    sim::Rng rng(3);
    std::vector<EpochThread> threads = {randomThread(rng, 0),
                                        randomThread(rng, 2)};
    auto rec = std::make_unique<RunRecord>();
    Epoch ep;
    ep.end = 10;
    rec->appendEpoch(ep, threads);
    const RunRecord copy = *rec;
    EXPECT_EQ(copy.arena, rec->arena);
    rec.reset();
    expectSameThreads(copy.epochs[0].active, threads);
}

namespace {

/**
 * Listens after a RunRecorder: keeps the views (not copies of the
 * deltas) of the first epochs it sees, with their decoded contents
 * at the time, to check them again after the run.
 */
class ViewProbe : public os::SyncListener
{
  public:
    explicit ViewProbe(const RunRecorder &rec) : _rec(rec) {}

    void
    onSyncEvent(const os::SyncEvent &, const os::System &) override
    {
        const std::vector<Epoch> &epochs = _rec.epochs();
        while (views.size() < epochs.size() && views.size() < 512) {
            const ActiveThreads v = epochs[views.size()].active;
            views.push_back(v);
            seen.emplace_back(v.begin(), v.end());
        }
    }

    std::vector<ActiveThreads> views;
    std::vector<std::vector<EpochThread>> seen;

  private:
    const RunRecorder &_rec;
};

} // namespace

TEST(EpochArena, LiveRecorderViewsStayValidWhileRecording)
{
    wl::BenchInstance inst =
        wl::buildBenchmark(wl::syntheticSmall(6, 1000),
                           wl::defaultSystemConfig(Frequency::ghz(1.0)));
    RunRecorder rec(*inst.sys);
    inst.sys->addListener(&rec);
    ViewProbe probe(rec);
    inst.sys->addListener(&probe);
    ASSERT_TRUE(inst.sys->run().finished);
    const RunRecord record = rec.finalize();

    ASSERT_EQ(probe.views.size(), 512u);
    // Recording went on long after the probe's last view, far enough
    // to fill further blocks.
    ASSERT_GT(record.arena->bytes(), 4 * EpochArena::kBlockWords * 8);
    for (std::size_t i = 0; i < probe.views.size(); ++i) {
        SCOPED_TRACE(i);
        expectSameThreads(probe.views[i], probe.seen[i]);
        EXPECT_EQ(record.epochs[i].active.words(), probe.views[i].words());
    }
}

TEST(EpochArena, AvroraGoldenSeedSampledRecordPacksToPinnedSize)
{
    // avrora's 1 GHz cell is the sampled sweep's largest record by
    // far (~66k epochs of ~3.9 active threads). Unpacked, at 128 B
    // per active thread, it took 33 MB; packed, zero fields take no
    // words. The pin is deterministic work, not host memory.
    exp::RunOptions ro;
    ro.mode = exp::SimMode::Sampled;
    ro.seed = exp::sweep::SweepSpec::replicateSeeds(42, 1)[0];
    const auto out = exp::runFixed(wl::benchmarkByName("avrora"),
                                   Frequency::ghz(1.0), ro);
    const RunRecord &rec = out.record;
    std::size_t entries = 0;
    for (const Epoch &ep : rec.epochs)
        entries += ep.active.size();
    const std::size_t unpacked = entries * sizeof(EpochThread);

    EXPECT_EQ(rec.epochs.size(), 66'589u);
    EXPECT_EQ(entries, 257'996u);
    // 42.8 B per active thread: 11.1 MB packed for 33.0 MB unpacked.
    EXPECT_EQ(rec.arena->usedBytes(), 11'050'680u);
    EXPECT_LT(rec.arena->usedBytes() * 2, unpacked);
    // Blocks add at most one worst-case epoch of slack each.
    EXPECT_LE(rec.arena->bytes(),
              rec.arena->usedBytes() + rec.arena->usedBytes() / 16 +
                  EpochArena::kBlockWords * 8);
}
