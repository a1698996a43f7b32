/**
 * @file
 * Fundamental time and frequency types for the simulator.
 *
 * The simulator measures time in integer femtoseconds ("ticks"). A
 * femtosecond base unit keeps cycle periods of every DVFS operating
 * point (1.0 GHz to 4.0 GHz in 125 MHz steps) representable with a
 * relative rounding error below 1e-6 while still covering more than
 * five simulated hours in a 64-bit counter.
 */

#ifndef DVFS_SIM_TIME_HH
#define DVFS_SIM_TIME_HH

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

namespace dvfs {

/** Simulated time in femtoseconds. */
using Tick = std::uint64_t;

/** Signed tick difference, for deltas that may be negative. */
using TickDelta = std::int64_t;

/** One picosecond worth of ticks. */
constexpr Tick kTicksPerPs = 1000;
/** One nanosecond worth of ticks. */
constexpr Tick kTicksPerNs = 1000 * kTicksPerPs;
/** One microsecond worth of ticks. */
constexpr Tick kTicksPerUs = 1000 * kTicksPerNs;
/** One millisecond worth of ticks. */
constexpr Tick kTicksPerMs = 1000 * kTicksPerUs;
/** One second worth of ticks. */
constexpr Tick kTicksPerSec = 1000 * kTicksPerMs;

/** Sentinel for "never" / "not scheduled". */
constexpr Tick kTickNever = std::numeric_limits<Tick>::max();

/** Convert a tick count to (double) seconds. */
constexpr double
ticksToSeconds(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kTicksPerSec);
}

/** Convert a tick count to (double) milliseconds. */
constexpr double
ticksToMs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kTicksPerMs);
}

/** Convert a tick count to (double) microseconds. */
constexpr double
ticksToUs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kTicksPerUs);
}

/** Convert a tick count to (double) nanoseconds. */
constexpr double
ticksToNs(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kTicksPerNs);
}

/**
 * std::llround without the libm call on the hot path: round to
 * nearest, ties away from zero. For finite 0 <= x < 2^63 the
 * truncation i is exact and so is x - i (Sterbenz: i <= x < 2i, or
 * i is 0), so `i + (x - i >= 0.5)` is llround's result bit for bit.
 * Every other input (negative, too large, NaN, infinite) goes to
 * std::llround itself.
 */
inline long long
roundHalfAway(double x)
{
    if (x >= 0.0 && x < 9223372036854775808.0) {
        const auto i = static_cast<long long>(x);
        return i + (x - static_cast<double>(i) >= 0.5);
    }
    return std::llround(x);
}

/** Convert (double) seconds to ticks, rounding to nearest. */
inline Tick
secondsToTicks(double s)
{
    return static_cast<Tick>(
        std::llround(s * static_cast<double>(kTicksPerSec)));
}

/** Convert (double) nanoseconds to ticks, rounding to nearest. */
inline Tick
nsToTicks(double ns)
{
    return static_cast<Tick>(
        std::llround(ns * static_cast<double>(kTicksPerNs)));
}

/**
 * A clock frequency, stored with megahertz resolution.
 *
 * Megahertz resolution exactly represents every operating point used by
 * the energy manager (125 MHz granularity) as well as the DRAM and
 * uncore clocks. Frequency is a value type and is freely copyable.
 */
class Frequency
{
  public:
    /** Default-constructed frequency is invalid (0 MHz). */
    constexpr Frequency() : _mhz(0) {}

    /** Construct from a raw megahertz count. */
    constexpr explicit Frequency(std::uint32_t mhz) : _mhz(mhz) {}

    /** Named constructor, megahertz. */
    static constexpr Frequency mhz(std::uint32_t v) { return Frequency(v); }

    /** Named constructor, gigahertz (fractional values allowed). */
    static Frequency
    ghz(double v)
    {
        return Frequency(static_cast<std::uint32_t>(std::llround(v * 1000.0)));
    }

    /** Raw megahertz value. */
    constexpr std::uint32_t toMHz() const { return _mhz; }

    /** Frequency in GHz as a double. */
    constexpr double toGHz() const { return _mhz / 1000.0; }

    /** Frequency in Hz as a double. */
    constexpr double toHz() const { return _mhz * 1e6; }

    /** True if this is a usable, non-zero frequency. */
    constexpr bool valid() const { return _mhz != 0; }

    /** Clock period in ticks (femtoseconds), as a double. */
    constexpr double
    periodTicks() const
    {
        return 1e9 / static_cast<double>(_mhz);
    }

    /**
     * Convert a (possibly fractional) cycle count at this frequency
     * into ticks, rounding to nearest.
     */
    Tick
    cyclesToTicks(double cycles) const
    {
        return static_cast<Tick>(roundHalfAway(cycles * periodTicks()));
    }

    /** Convert a tick duration into (double) cycles at this frequency. */
    constexpr double
    ticksToCycles(Tick t) const
    {
        return static_cast<double>(t) / periodTicks();
    }

    /** Human-readable rendering, e.g. "2.125 GHz". */
    std::string toString() const;

    constexpr auto operator<=>(const Frequency &other) const = default;

  private:
    std::uint32_t _mhz;
};

} // namespace dvfs

#endif // DVFS_SIM_TIME_HH
