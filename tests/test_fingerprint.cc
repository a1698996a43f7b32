/**
 * @file
 * Property tests for the replay digest's FNV-1a hasher.
 *
 * Fnv1a::mix folds a word's high zero bytes into one multiply instead
 * of stepping through them. Every pinned golden depends on that being
 * exactly byte-serial FNV-1a, so each case here streams the same words
 * through Fnv1a and through a plain eight-steps-per-word reference and
 * demands the same digest after every word.
 *
 * The record digest walks packed epoch entries and folds each run of
 * zero fields into one step; it is checked against a byte-serial
 * digest of the decoded record, field by field.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "exp/experiment.hh"
#include "exp/sweep/fingerprint.hh"
#include "exp/sweep/sweep.hh"
#include "sim/rng.hh"
#include "wl/suite.hh"

using namespace dvfs;
using exp::sweep::Fnv1a;

namespace {

/** Byte-serial FNV-1a over 64-bit words, low byte first. */
class ReferenceFnv1a
{
  public:
    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            _h ^= (v >> (i * 8)) & 0xff;
            _h *= 0x100000001b3ULL;
        }
    }

    void
    mixDouble(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        mix(bits);
    }

    void
    mixCounters(const uarch::PerfCounters &c)
    {
        for (std::uint64_t f : uarch::toWords(c))
            mix(f);
    }

    std::uint64_t digest() const { return _h; }

  private:
    std::uint64_t _h = 0xcbf29ce484222325ULL;
};

/** Stream @p words through both hashers, comparing after each word. */
void
expectSameStream(const std::vector<std::uint64_t> &words)
{
    Fnv1a h;
    ReferenceFnv1a ref;
    for (std::size_t i = 0; i < words.size(); ++i) {
        h.mix(words[i]);
        ref.mix(words[i]);
        ASSERT_EQ(h.digest(), ref.digest())
            << "word " << i << " = 0x" << std::hex << words[i];
    }
}

/** Digest of the single word @p v under each hasher. */
void
expectSameWord(std::uint64_t v)
{
    Fnv1a h;
    ReferenceFnv1a ref;
    h.mix(v);
    ref.mix(v);
    EXPECT_EQ(h.digest(), ref.digest()) << "0x" << std::hex << v;
}

} // namespace

TEST(Fnv1a, EmptyDigestIsOffsetBasis)
{
    EXPECT_EQ(Fnv1a().digest(), 0xcbf29ce484222325ULL);
}

TEST(Fnv1a, ZeroAndAllOnes)
{
    expectSameWord(0);
    expectSameWord(~0ull);
    expectSameStream({0, 0, ~0ull, 0, ~0ull, ~0ull});
}

TEST(Fnv1a, EveryByteBoundary)
{
    // 2^(8k) is the smallest word with k+1 significant bytes and
    // 2^(8k)-1 the largest with k: the fold's two edges at each width.
    std::vector<std::uint64_t> stream;
    for (unsigned k = 0; k < 8; ++k) {
        const std::uint64_t pow = std::uint64_t{1} << (8 * k);
        expectSameWord(pow);
        expectSameWord(pow - 1);
        stream.push_back(pow);
        stream.push_back(pow - 1);
    }
    expectSameStream(stream);
}

TEST(Fnv1a, InteriorZeroBytes)
{
    // Zero bytes below the highest significant byte still take the
    // byte-serial path; zero bytes above it fold.
    expectSameStream({0x0100000000000001ull, 0x00ff0000000000ffull,
                      0x0000010000000100ull, 0x8000000000000000ull,
                      0x0000000100000000ull, 0x00000000ff000000ull,
                      0x0001000100010001ull, 0x1000000000000000ull});
}

TEST(Fnv1a, SeededWordsOfRandomWidth)
{
    // Widths are uniform over 0..64 significant bits, so every fold
    // length occurs thousands of times in one running digest.
    sim::Rng rng(20161);
    std::vector<std::uint64_t> words;
    words.reserve(100'000);
    for (unsigned i = 0; i < 100'000; ++i) {
        const unsigned width = static_cast<unsigned>(rng.nextBounded(65));
        std::uint64_t v = rng.next();
        v = width == 0 ? 0 : v >> (64 - width);
        words.push_back(v);
    }
    expectSameStream(words);
}

TEST(Fnv1a, MixDoubleHashesTheBitPattern)
{
    const double values[] = {0.0, -0.0,
                             std::numeric_limits<double>::quiet_NaN(),
                             1.0, -1.5e-300};
    Fnv1a h;
    ReferenceFnv1a ref;
    for (double v : values) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        h.mixDouble(v);
        ref.mix(bits);
        EXPECT_EQ(h.digest(), ref.digest()) << v;
    }
    // +0.0 and -0.0 compare equal but must digest differently.
    Fnv1a pos, neg;
    pos.mixDouble(0.0);
    neg.mixDouble(-0.0);
    EXPECT_NE(pos.digest(), neg.digest());
}

TEST(Fnv1a, MixStringIsLengthThenBytes)
{
    const std::string s("avrora\0x", 8);
    Fnv1a h;
    h.mixString(s);
    ReferenceFnv1a ref;
    ref.mix(s.size());
    std::uint64_t expect = ref.digest();
    for (unsigned char c : s) {
        expect ^= c;
        expect *= 0x100000001b3ULL;
    }
    EXPECT_EQ(h.digest(), expect);
}

TEST(Fnv1a, MixZerosIsKZeroWords)
{
    // From several running states, since the fold is a multiply.
    sim::Rng rng(0x2e05);
    for (int trial = 0; trial < 8; ++trial) {
        const std::uint64_t prefix = trial == 0 ? 0 : rng.next();
        for (unsigned k = 0; k <= 15; ++k) {
            Fnv1a folded, stepped;
            ReferenceFnv1a ref;
            if (trial != 0) {
                folded.mix(prefix);
                stepped.mix(prefix);
                ref.mix(prefix);
            }
            folded.mixZeros(k);
            for (unsigned i = 0; i < k; ++i) {
                stepped.mix(0);
                ref.mix(0);
            }
            EXPECT_EQ(folded.digest(), stepped.digest()) << "k = " << k;
            EXPECT_EQ(folded.digest(), ref.digest()) << "k = " << k;
        }
    }
}

namespace {

/**
 * fingerprintRun of a fixed run, byte-serial over the decoded record:
 * every epoch thread's fifteen fields, zero or not.
 */
std::uint64_t
referenceFingerprint(const exp::FixedRunOutput &out)
{
    ReferenceFnv1a h;
    h.mix(out.freq.toMHz());
    h.mix(out.totalTime);
    h.mix(out.events);
    h.mix(out.collections);
    h.mix(out.gcTime);
    h.mix(out.allocatedBytes);
    h.mixCounters(out.totals);
    h.mixDouble(out.energy.coreDynamic);
    h.mixDouble(out.energy.coreStatic);
    h.mixDouble(out.energy.uncore);
    h.mixDouble(out.energy.dram);
    const pred::RunRecord &rec = out.record;
    h.mix(rec.baseFreq.toMHz());
    h.mix(rec.totalTime);
    h.mix(rec.epochs.size());
    for (const pred::Epoch &e : rec.epochs) {
        h.mix(e.start);
        h.mix(e.end);
        h.mix(static_cast<std::uint64_t>(e.boundary));
        h.mix(static_cast<std::uint64_t>(e.stallTid));
        h.mix(e.active.size());
        for (const pred::EpochThread &t : e.active) {
            h.mix(static_cast<std::uint64_t>(t.tid));
            h.mixCounters(t.delta);
        }
    }
    h.mix(rec.threads.size());
    for (const pred::ThreadSummary &t : rec.threads) {
        h.mix(static_cast<std::uint64_t>(t.tid));
        h.mix(t.service ? 1 : 0);
        h.mix(t.spawnTick);
        h.mix(t.exitTick);
        h.mixCounters(t.totals);
    }
    h.mix(rec.gcMarks.size());
    for (const pred::GcPhaseMark &m : rec.gcMarks) {
        h.mix(m.tick);
        h.mix(m.begin ? 1 : 0);
    }
    return h.digest();
}

} // namespace

TEST(FingerprintRun, PackedWalkMatchesDecodedWalkOnAvrora)
{
    // avrora's golden-seed 1 GHz sampled cell: ~66k epochs, most of
    // their delta fields zero.
    exp::RunOptions ro;
    ro.mode = exp::SimMode::Sampled;
    ro.seed = exp::sweep::SweepSpec::replicateSeeds(42, 1)[0];
    const auto out = exp::runFixed(wl::benchmarkByName("avrora"),
                                   Frequency::ghz(1.0), ro);
    ASSERT_GT(out.record.epochs.size(), 60'000u);
    EXPECT_EQ(exp::sweep::fingerprintRun(out), referenceFingerprint(out));
}
