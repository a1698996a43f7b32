/**
 * @file
 * FNV-1a fingerprints of run outputs — the sweep's replay witness.
 *
 * A fingerprint digests everything a sweep cell observably produced
 * (total time, epoch decomposition, per-thread counters, energy, GC
 * activity) into one 64-bit value, the same scheme fault::FaultPlan
 * uses for its trace. Two runs with equal fingerprints produced
 * bit-identical records, so the golden-trace tests can assert that a
 * parallel sweep is indistinguishable from the serial one with a
 * single comparison per cell.
 */

#ifndef DVFS_EXP_SWEEP_FINGERPRINT_HH
#define DVFS_EXP_SWEEP_FINGERPRINT_HH

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

namespace dvfs::exp {
struct FixedRunOutput;
struct ManagedRunOutput;
}

namespace dvfs::exp::sweep {

/** Incremental FNV-1a hasher over 64-bit words. */
class Fnv1a
{
  public:
    /**
     * Fold a 64-bit word into the digest, low byte first.
     *
     * The result is byte-serial FNV-1a over all eight bytes. A zero
     * byte's step is just `h *= P` (XOR with 0 is a no-op), so the
     * word's high zero bytes fold into one multiply by P^k. Most
     * digested counters are small, so this skips most of the steps.
     */
    void
    mix(std::uint64_t v)
    {
        const unsigned bytes =
            (71u - static_cast<unsigned>(std::countl_zero(v))) / 8;
        for (unsigned i = 0; i < bytes; ++i) {
            _h ^= v & 0xff;
            _h *= kPrime;
            v >>= 8;
        }
        _h *= kPrimePow[8 - bytes];
    }

    /**
     * Fold @p k zero words (k <= 15) at once: a zero word's step is
     * `h *= P^8`, so k of them are one multiply by P^(8k). The same
     * digest as k calls of mix(0).
     */
    void
    mixZeros(unsigned k)
    {
        _h *= kZeroWordsPow[k];
    }

    /** Fold a double via its bit pattern (exact, not rounded). */
    void
    mixDouble(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        mix(bits);
    }

    /** Fold a string (length then bytes). */
    void
    mixString(const std::string &s)
    {
        mix(s.size());
        for (unsigned char c : s) {
            _h ^= c;
            _h *= kPrime;
        }
    }

    std::uint64_t digest() const { return _h; }

  private:
    static constexpr std::uint64_t kPrime = 0x100000001b3ULL;

    /** kPrimePow[k] = kPrime^k (mod 2^64): k zero bytes in one step. */
    static constexpr std::array<std::uint64_t, 9> kPrimePow = [] {
        std::array<std::uint64_t, 9> p{};
        p[0] = 1;
        for (std::size_t k = 1; k < p.size(); ++k)
            p[k] = p[k - 1] * kPrime;
        return p;
    }();

    /** kZeroWordsPow[k] = kPrime^(8k): k zero words in one step. */
    static constexpr std::array<std::uint64_t, 16> kZeroWordsPow = [] {
        std::array<std::uint64_t, 16> p{};
        p[0] = 1;
        for (std::size_t k = 1; k < p.size(); ++k)
            p[k] = p[k - 1] * kPrimePow[8];
        return p;
    }();

    std::uint64_t _h = 0xcbf29ce484222325ULL;
};

/** Digest of one fixed-frequency ground-truth run. */
std::uint64_t fingerprintRun(const FixedRunOutput &out);

/** Digest of one energy-manager-governed run. */
std::uint64_t fingerprintRun(const ManagedRunOutput &out);

} // namespace dvfs::exp::sweep

#endif // DVFS_EXP_SWEEP_FINGERPRINT_HH
