/**
 * @file
 * Small deterministic pseudo-random number generator.
 *
 * Every stochastic decision in the simulator (BIP insertion, workload
 * generators, virtual-to-physical randomisation) draws from a seeded
 * Xoshiro-style generator so that runs are exactly reproducible.
 */

#ifndef BOP_COMMON_RNG_HH
#define BOP_COMMON_RNG_HH

#include <cstdint>

#include "common/serializer.hh"

namespace bop
{

/** splitmix64 step; also used standalone as a mixing/hash function. */
constexpr std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * The integer form of the float test `u * 2^-bits < p` on a draw u of
 * @p bits random bits (53 for next() >> 11): `u < fractionThreshold(p,
 * bits)`. u * 2^-bits and p * 2^bits are exact (power-of-two
 * scalings), and for an integer u the test u < x is u < ceil(x), so
 * the two tests agree on every u. Returns 0 for p <= 0 or NaN and
 * 2^bits for p >= 1.
 */
constexpr std::uint64_t
fractionThreshold(double p, unsigned bits = 53)
{
    if (!(p > 0.0))
        return 0;
    if (p >= 1.0)
        return 1ull << bits;
    const double x = p * static_cast<double>(1ull << bits);
    const auto floor_x = static_cast<std::uint64_t>(x);
    return static_cast<double>(floor_x) < x ? floor_x + 1 : floor_x;
}

/**
 * A Bernoulli probability prepared once for chance(): per draw the
 * test is one integer compare instead of an int-to-double conversion
 * and a multiply. The draw count is Rng's historical rule: p <= 0 and
 * p >= 1 decide without drawing, anything else (NaN included, which
 * then never succeeds) consumes exactly one draw.
 */
class Chance
{
  public:
    /** Implicit, so chance(0.5) keeps reading like a probability. */
    constexpr Chance(double p)
        : threshold(fractionThreshold(p)),
          drawing(!(p <= 0.0) && !(p >= 1.0))
    {
    }

    /** Whether the test consumes a draw. */
    constexpr bool draws() const { return drawing; }

    /** The outcome when no draw is consumed (p <= 0 or p >= 1). */
    constexpr bool certain() const { return threshold != 0; }

    /** The float rule's verdict on the 53-bit draw @p u. */
    constexpr bool admits(std::uint64_t u) const { return u < threshold; }

  private:
    std::uint64_t threshold;
    bool drawing;
};

/**
 * xorshift128+ generator. Fast, good enough statistical quality for
 * simulation purposes, and trivially seedable/deterministic.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x5eed)
    {
        reseed(seed);
    }

    /** Re-seed the generator deterministically. */
    void
    reseed(std::uint64_t seed)
    {
        s0 = splitmix64(seed);
        s1 = splitmix64(s0 ^ 0xdeadbeefcafef00dull);
        if (s0 == 0 && s1 == 0)
            s1 = 1;
    }

    /** Next raw 64-bit value. */
    std::uint64_t
    next()
    {
        std::uint64_t x = s0;
        const std::uint64_t y = s1;
        s0 = y;
        x ^= x << 23;
        s1 = x ^ y ^ (x >> 17) ^ (y >> 26);
        return s1 + y;
    }

    /** Uniform integer in [0, bound) (bound > 0). */
    std::uint64_t
    below(std::uint64_t bound)
    {
        return next() % bound;
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Bernoulli draw: true with probability p (clamped to [0,1]). */
    bool
    chance(Chance c)
    {
        return c.draws() ? c.admits(next() >> 11) : c.certain();
    }

    /** Checkpoint the generator state (draw order is load-bearing). */
    void
    serialize(Serializer &s)
    {
        s.value(s0);
        s.value(s1);
    }

  private:
    std::uint64_t s0 = 0;
    std::uint64_t s1 = 0;
};

/**
 * Rng with a small refill buffer. Draw-heavy consumers (the synthetic
 * trace generators draw several values per instruction) refill the
 * buffer in one tight loop — the xorshift recurrences of consecutive
 * draws pipeline instead of being interleaved with consumer branches —
 * and then hand values out from plain array reads.
 *
 * The draw *stream* is exactly Rng's for the same seed: the buffer is
 * filled in generation order and consumed in order, and below()/
 * range()/chance() use Rng's rules verbatim on the buffered next().
 * Draw order is load-bearing for reproducibility (every golden run
 * stat pins it), so buffering may batch draws but never reorder them.
 */
class BufferedRng
{
  public:
    explicit BufferedRng(std::uint64_t seed = 0x5eed) : rng(seed) {}

    /** Re-seed deterministically; undrawn buffered values are dropped
     *  (the stream restarts exactly like a fresh Rng(seed)). */
    void
    reseed(std::uint64_t seed)
    {
        rng.reseed(seed);
        pos = bufferSize;
    }

    /** Next raw 64-bit value (same stream as Rng::next). */
    std::uint64_t
    next()
    {
        if (pos == bufferSize)
            refill();
        return buf[pos++];
    }

    /** Uniform integer in [0, bound) (bound > 0). */
    std::uint64_t below(std::uint64_t bound) { return next() % bound; }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Bernoulli draw: true with probability p (clamped to [0,1]). */
    bool
    chance(Chance c)
    {
        return c.draws() ? c.admits(next() >> 11) : c.certain();
    }

    /**
     * Checkpoint the generator state *including* the refill buffer
     * and its consumption position: a save can land mid-buffer, and
     * dropping the undrawn values would skip pos..15 of the stream —
     * the latent restore hazard pinned by the checkpoint tests.
     */
    void
    serialize(Serializer &s)
    {
        rng.serialize(s);
        for (unsigned i = 0; i < bufferSize; ++i)
            s.value(buf[i]);
        s.value(pos);
        if (s.loading() && pos > bufferSize)
            s.fail("BufferedRng position out of range");
    }

  private:
    static constexpr unsigned bufferSize = 16;

    void
    refill()
    {
        for (unsigned i = 0; i < bufferSize; ++i)
            buf[i] = rng.next();
        pos = 0;
    }

    Rng rng;
    std::uint64_t buf[bufferSize] = {};
    unsigned pos = bufferSize; ///< == bufferSize when empty
};

} // namespace bop

#endif // BOP_COMMON_RNG_HH
