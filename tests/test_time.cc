/**
 * @file
 * Unit tests for the tick/frequency foundation (sim/time.hh).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>

#include "sim/time.hh"

using namespace dvfs;

TEST(Time, TickConstantsAreConsistent)
{
    EXPECT_EQ(kTicksPerNs, 1000 * kTicksPerPs);
    EXPECT_EQ(kTicksPerUs, 1000 * kTicksPerNs);
    EXPECT_EQ(kTicksPerMs, 1000 * kTicksPerUs);
    EXPECT_EQ(kTicksPerSec, 1000 * kTicksPerMs);
}

TEST(Time, ConversionsRoundTrip)
{
    EXPECT_DOUBLE_EQ(ticksToSeconds(kTicksPerSec), 1.0);
    EXPECT_DOUBLE_EQ(ticksToMs(kTicksPerMs), 1.0);
    EXPECT_DOUBLE_EQ(ticksToUs(kTicksPerUs), 1.0);
    EXPECT_DOUBLE_EQ(ticksToNs(kTicksPerNs), 1.0);
    EXPECT_EQ(secondsToTicks(2.5), 2 * kTicksPerSec + 500 * kTicksPerMs);
    EXPECT_EQ(nsToTicks(13.75), 13'750'000u);
}

TEST(Frequency, DefaultIsInvalid)
{
    Frequency f;
    EXPECT_FALSE(f.valid());
    EXPECT_EQ(f.toMHz(), 0u);
    EXPECT_EQ(f.toString(), "<invalid>");
}

TEST(Frequency, Constructors)
{
    EXPECT_EQ(Frequency::mhz(1500).toMHz(), 1500u);
    EXPECT_EQ(Frequency::ghz(1.5).toMHz(), 1500u);
    EXPECT_EQ(Frequency::ghz(2.125).toMHz(), 2125u);
    EXPECT_DOUBLE_EQ(Frequency::ghz(4.0).toGHz(), 4.0);
    EXPECT_DOUBLE_EQ(Frequency::mhz(1000).toHz(), 1e9);
}

TEST(Frequency, PeriodAtOneGHzIsOneNs)
{
    Frequency f = Frequency::ghz(1.0);
    EXPECT_DOUBLE_EQ(f.periodTicks(), static_cast<double>(kTicksPerNs));
    EXPECT_EQ(f.cyclesToTicks(1.0), kTicksPerNs);
    EXPECT_EQ(f.cyclesToTicks(1000.0), kTicksPerUs);
}

TEST(Frequency, Ordering)
{
    EXPECT_LT(Frequency::ghz(1.0), Frequency::ghz(2.0));
    EXPECT_EQ(Frequency::ghz(1.0), Frequency::mhz(1000));
    EXPECT_GT(Frequency::mhz(1125), Frequency::mhz(1000));
}

TEST(Frequency, ToString)
{
    EXPECT_EQ(Frequency::ghz(1.0).toString(), "1.0 GHz");
    EXPECT_EQ(Frequency::ghz(4.0).toString(), "4.0 GHz");
    EXPECT_EQ(Frequency::mhz(1125).toString(), "1.125 GHz");
}

/** Property sweep: cycles->ticks->cycles round trip over the whole
 * DVFS operating range at 125 MHz steps. */
class FrequencyRoundTrip : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(FrequencyRoundTrip, CycleConversionErrorIsTiny)
{
    Frequency f = Frequency::mhz(GetParam());
    for (double cycles : {1.0, 17.0, 1000.0, 123456.0, 9.9e6}) {
        Tick t = f.cyclesToTicks(cycles);
        double back = f.ticksToCycles(t);
        EXPECT_NEAR(back, cycles, cycles * 1e-5 + 0.01)
            << "at " << f.toString();
    }
}

TEST_P(FrequencyRoundTrip, PeriodTimesFrequencyIsUnity)
{
    Frequency f = Frequency::mhz(GetParam());
    EXPECT_NEAR(f.periodTicks() * f.toHz(),
                static_cast<double>(kTicksPerSec), 1.0);
}

INSTANTIATE_TEST_SUITE_P(DvfsRange, FrequencyRoundTrip,
                         ::testing::Values(1000, 1125, 1250, 1375, 1500,
                                           1750, 2000, 2500, 3000, 3375,
                                           3625, 4000));

/**
 * roundHalfAway is llround without the libm call: it must agree with
 * std::llround bit for bit on its fast range and fall back to it
 * everywhere else.
 */
TEST(RoundHalfAway, MatchesLlroundOnEdgeCases)
{
    const double two52 = 4503599627370496.0;
    const double two53 = 9007199254740992.0;
    const double two63 = 9223372036854775808.0;
    const double inf = std::numeric_limits<double>::infinity();
    const double cases[] = {
        0.0, -0.0, 0.5, 1.5, 2.5, 0.49999999999999994, 1.0 - 0x1p-53,
        two52 - 0.5, two52 + 0.5, two52 - 1.5, two53 + 2, two53 - 1,
        9.2e18, std::nextafter(two63, 0.0), two63, -0.5, -1.5, -2.5,
        -9.2e18, 1e-310, inf, -inf,
        std::numeric_limits<double>::quiet_NaN()};
    for (double x : cases)
        EXPECT_EQ(roundHalfAway(x), std::llround(x)) << "x=" << x;
}

TEST(RoundHalfAway, MatchesLlroundOnSeededDoubles)
{
    const double inf = std::numeric_limits<double>::infinity();
    std::mt19937_64 rng(20260418);
    std::size_t mismatches = 0;
    for (int i = 0; i < 1'000'000; ++i) {
        const std::uint64_t r = rng();
        double x;
        switch (i % 4) {
          case 0:
            // Any bit pattern: negatives, NaNs, infinities, subnormals.
            std::memcpy(&x, &r, sizeof(x));
            break;
          case 1:
            // Uniform magnitudes across the fast range's binades.
            x = std::ldexp(static_cast<double>(r >> 11) * 0x1p-53,
                           static_cast<int>(r % 65));
            break;
          case 2:
            // Exact halves, the tie cases.
            x = static_cast<double>(r >> 12) + 0.5;
            break;
          default:
            // One ulp either side of a half.
            x = static_cast<double>(r >> 40) + 0.5;
            x = (r & 1) ? std::nextafter(x, 0.0) : std::nextafter(x, inf);
            break;
        }
        mismatches += roundHalfAway(x) != std::llround(x);
    }
    EXPECT_EQ(mismatches, 0u);
}
