/**
 * @file
 * Differential test of the fast-path model's emission bookkeeping:
 * EraLane's quotient/remainder form must emit, charge after charge,
 * exactly what the cumulative-floor definition
 *
 *     emit = floor(charged * eraObs / eraWeight) - emittedSoFar
 *
 * emits when computed directly in 128-bit arithmetic — across unit
 * (miss-cluster) and multi-line (store-burst) weights, promotions and
 * operating-point forks in mid-stream.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "sim/rng.hh"
#include "uarch/fastpath.hh"

using namespace dvfs;

namespace {

constexpr int kFields = 5;
using Lane = uarch::EraLane<kFields>;

/** The cumulative-floor definition, computed the direct way. */
struct Reference {
    std::uint64_t weight = 0;
    std::uint64_t obs[kFields] = {};
    std::uint64_t charged = 0;
    std::uint64_t emitted[kFields] = {};

    /** Restart from the era @p lane currently charges from. */
    void
    startEra(const Lane &lane)
    {
        weight = lane.eraWeight;
        charged = 0;
        for (int i = 0; i < kFields; ++i) {
            obs[i] = lane.eraObs[i];
            emitted[i] = 0;
        }
    }

    std::uint64_t
    emit(int field, std::uint64_t w) const
    {
        const auto entitled = static_cast<std::uint64_t>(
            static_cast<unsigned __int128>(charged + w) * obs[field] /
            weight);
        return entitled > emitted[field] ? entitled - emitted[field] : 0;
    }
};

/** A window of @p weight observations with sums up to 2^@p obsBits. */
void
fillWindow(Lane &lane, sim::Rng &rng, std::uint64_t weight, int obsBits)
{
    lane.winWeight = weight;
    for (int i = 0; i < kFields; ++i) {
        // Mix sums below the weight (quotient 0), exact multiples
        // (remainder 0) and arbitrary values.
        switch (rng.nextBounded(4)) {
          case 0:
            lane.winObs[i] = rng.nextBounded(weight);
            break;
          case 1:
            lane.winObs[i] =
                rng.nextBounded(1ULL << obsBits) / weight * weight;
            break;
          default:
            lane.winObs[i] = rng.nextBounded(1ULL << obsBits);
            break;
        }
    }
}

} // namespace

TEST(EraLaneEmission, QuotientRemainderMatchesCumulativeFloor)
{
    sim::Rng rng(0x5eed'e7a1ULL);
    std::uint64_t charges = 0, unit = 0, wide = 0;
    for (int trial = 0; trial < 400; ++trial) {
        Lane lane;
        Reference ref;
        // Small weights with modest sums, and huge weights with sums
        // up to 2^40: the second regime drives weight * rem0 past 64
        // bits on large bursts. Charged totals stay small enough that
        // charged * eraObs / eraWeight < 2^64 (above that the direct
        // formula wraps and is no reference).
        const bool huge = trial % 3 == 2;
        for (int era = 0; era < 6; ++era) {
            const std::uint64_t w =
                huge ? (1ULL << 38) + rng.nextBounded(3ULL << 38)
                     : 1 + rng.nextBounded(era % 2 ? 4096 : 16);
            fillWindow(lane, rng, w, huge ? 40 : 24);
            if (era % 3 == 2) {
                // An operating-point switch: charge from a fork.
                Lane src = lane;
                src.promote(1);
                Lane forked;
                auto point = [&rng] {
                    return static_cast<std::uint32_t>(
                        1000 + 125 * rng.nextBounded(25));
                };
                const std::uint32_t oldMhz = point();
                forked.fork(src, 1, 0, oldMhz, point());
                lane = forked;
            } else {
                lane.promote(1);
            }
            ref.startEra(lane);
            const int n = 1 + static_cast<int>(rng.nextBounded(300));
            for (int k = 0; k < n; ++k) {
                std::uint64_t weight = 1;
                if (rng.nextBool(0.5)) {
                    weight = huge
                                 ? (1ULL << 26) + rng.nextBounded(3ULL << 26)
                                 : 1 + rng.nextBounded(512);
                }
                for (int f = 0; f < kFields; ++f) {
                    const std::uint64_t expect = ref.emit(f, weight);
                    const unsigned __int128 x =
                        static_cast<unsigned __int128>(weight) *
                            lane.rem0[f] + lane.rem[f];
                    wide += x >> 64 != 0;
                    ASSERT_EQ(lane.emit(f, weight), expect)
                        << "trial " << trial << " era " << era
                        << " charge " << k << " field " << f
                        << " weight " << weight;
                    ref.emitted[f] += expect;
                }
                ref.charged += weight;
                unit += weight == 1;
                ++charges;
            }
        }
    }
    // Every branch of emit() ran: unit, 64-bit and 128-bit.
    EXPECT_GT(unit, 1000u);
    EXPECT_GT(charges - unit, 1000u);
    EXPECT_GT(wide, 100u);
}

TEST(EraLaneEmission, ThinWindowDoesNotRestartTheEra)
{
    // A window below the threshold must leave the era, and its
    // emission remainders, untouched.
    Lane lane;
    lane.winWeight = 3;
    lane.winObs[0] = 10;
    lane.promote(1);
    EXPECT_EQ(lane.emit(0, 1), 3u);  // floor(10/3)
    EXPECT_EQ(lane.emit(0, 1), 3u);  // floor(20/3) - 3
    lane.winWeight = 1;
    lane.winObs[0] = 1000;
    lane.promote(2);
    EXPECT_EQ(lane.eraWeight, 3u);
    EXPECT_EQ(lane.emit(0, 1), 4u);  // floor(30/3) - 6
    EXPECT_EQ(lane.emit(0, 3), 10u);
}
