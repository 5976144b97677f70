/**
 * @file
 * Tests for the xorshift128+ RNG every stochastic component of the
 * simulator is seeded from (virtual-memory randomisation, BIP/DRRIP
 * insertion throws, workload generators). Determinism across
 * construction paths is what makes whole-system runs reproducible, so
 * it is pinned here explicitly.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/rng.hh"

namespace bop
{
namespace
{

TEST(Rng, DeterministicForEqualSeeds)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next() == b.next())
            ++equal;
    }
    EXPECT_LT(equal, 2);
}

TEST(Rng, ReseedRestartsTheSequence)
{
    Rng rng(77);
    std::vector<std::uint64_t> first;
    for (int i = 0; i < 16; ++i)
        first.push_back(rng.next());
    rng.reseed(77);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(rng.next(), first[static_cast<std::size_t>(i)]);
}

TEST(Rng, ZeroSeedIsValid)
{
    // xorshift dies on an all-zero state; the splitmix expansion and
    // the explicit guard must keep seed 0 usable.
    Rng rng(0);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 64; ++i)
        seen.insert(rng.next());
    EXPECT_GT(seen.size(), 60u);
}

TEST(Rng, BitsAreRoughlyBalanced)
{
    // Not a statistical test battery — just a tripwire against a
    // catastrophic state-update regression (stuck bits).
    Rng rng(0xbeef);
    int ones[64] = {};
    const int n = 4096;
    for (int i = 0; i < n; ++i) {
        const std::uint64_t v = rng.next();
        for (int b = 0; b < 64; ++b)
            ones[b] += (v >> b) & 1;
    }
    for (int b = 0; b < 64; ++b) {
        EXPECT_GT(ones[b], n / 3) << "bit " << b << " mostly 0";
        EXPECT_LT(ones[b], 2 * n / 3) << "bit " << b << " mostly 1";
    }
}

TEST(Rng, SplitmixAvalanche)
{
    // Consecutive seeds must not produce correlated first outputs —
    // cores are seeded as (seed + core id).
    std::set<std::uint64_t> firsts;
    for (std::uint64_t s = 0; s < 256; ++s)
        firsts.insert(Rng(s).next());
    EXPECT_EQ(firsts.size(), 256u);
}

TEST(BufferedRng, DrawStreamMatchesPlainRng)
{
    // The refill buffer must be invisible: a mixed next/below/range/
    // chance sequence draws bit-identically to an unbuffered Rng, at
    // every phase of the 16-entry buffer.
    Rng plain(0xabcd);
    BufferedRng buffered(0xabcd);
    for (int i = 0; i < 1000; ++i) {
        switch (i % 4) {
        case 0:
            ASSERT_EQ(buffered.next(), plain.next()) << i;
            break;
        case 1:
            ASSERT_EQ(buffered.below(7 + i % 13), plain.below(7 + i % 13))
                << i;
            break;
        case 2:
            ASSERT_EQ(buffered.range(10, 20 + i % 5),
                      plain.range(10, 20 + i % 5))
                << i;
            break;
        default:
            ASSERT_EQ(buffered.chance(0.3), plain.chance(0.3)) << i;
            break;
        }
    }
}

TEST(BufferedRng, ReseedRestartsLikeFreshRng)
{
    // reseed() drops the undrawn tail of the buffer: the generator
    // workloads reset their streams mid-run and expect a clean start.
    BufferedRng buffered(9);
    for (int i = 0; i < 5; ++i) // mid-buffer
        buffered.next();
    buffered.reseed(42);
    Rng fresh(42);
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(buffered.next(), fresh.next()) << i;
}

TEST(Chance, ThresholdMatchesTheFloatRuleAtItsEdges)
{
    // u < ceil(p * 2^53) must decide every 53-bit draw u exactly as
    // the float rule u * 2^-53 < p does; the boundary is where an
    // off-by-one would show. ceil() here is the library's.
    constexpr std::uint64_t span = 1ull << 53;
    const double tiny = 1.0 / 9007199254740992.0; // 2^-53
    for (const double p :
         {0.0, tiny, 0.1, 0.25, 0.5, 1.0 - tiny, 1.0, 0.3, 1e-300}) {
        const Chance c(p);
        const double edge = std::ceil(p * 9007199254740992.0);
        const auto e = static_cast<std::uint64_t>(edge);
        std::vector<std::uint64_t> draws = {0, span - 1, e};
        if (e > 0)
            draws.push_back(e - 1);
        for (const std::uint64_t u : draws) {
            if (u >= span)
                continue;
            const bool expect =
                static_cast<double>(u) * (1.0 / 9007199254740992.0) < p;
            EXPECT_EQ(c.admits(u), expect) << p << " at " << u;
        }
    }
    EXPECT_EQ(fractionThreshold(0.0), 0u);
    EXPECT_EQ(fractionThreshold(tiny), 1u);
    EXPECT_EQ(fractionThreshold(0.5), span / 2);
    EXPECT_EQ(fractionThreshold(1.0 - tiny), span - 1);
    EXPECT_EQ(fractionThreshold(1.0), span);
    EXPECT_EQ(fractionThreshold(-0.5), 0u);
    EXPECT_EQ(fractionThreshold(2.0), span);
    EXPECT_EQ(fractionThreshold(std::nan("")), 0u);
}

TEST(Chance, DrawCountFollowsTheHistoricalRule)
{
    // p <= 0 and p >= 1 decide without drawing; anything else, NaN
    // included, consumes exactly one draw. A drawing test that used
    // one draw too many or too few would shift every later value.
    for (const double p : {-1.0, 0.0, 1.0, 7.0}) {
        Rng rng(5), ref(5);
        EXPECT_EQ(rng.chance(p), p >= 1.0) << p;
        EXPECT_FALSE(Chance(p).draws()) << p;
        EXPECT_EQ(rng.next(), ref.next()) << p << ": no draw consumed";
    }
    for (const double p : {1e-300, 0.3, 1.0 - 1e-16, std::nan("")}) {
        Rng rng(5), ref(5);
        const std::uint64_t u = ref.next() >> 11;
        const bool expect =
            static_cast<double>(u) * (1.0 / 9007199254740992.0) < p;
        EXPECT_EQ(rng.chance(p), expect) << p;
        EXPECT_TRUE(Chance(p).draws()) << p;
        EXPECT_EQ(rng.next(), ref.next()) << p << ": one draw consumed";
    }
}

} // namespace
} // namespace bop
