/**
 * @file
 * Tests for the stack-based replacement policy (LRU), and for the
 * restore checks every policy's per-set words pass through.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cache/drrip.hh"
#include "cache/policy_5p.hh"
#include "cache/replacement.hh"
#include "common/serializer.hh"

namespace bop
{
namespace
{

TEST(Lru, EvictsLeastRecentlyUsed)
{
    LruPolicy lru;
    lru.reset(1, 4);
    for (unsigned w = 0; w < 4; ++w)
        lru.onFill(0, w, {});
    // Order of fills: 0,1,2,3 -> LRU is way 0.
    EXPECT_EQ(lru.victim(0), 0u);
    lru.onHit(0, 0);
    EXPECT_EQ(lru.victim(0), 1u);
}

TEST(Lru, VictimPeekAgreesWithVictim)
{
    LruPolicy lru;
    lru.reset(4, 8);
    for (unsigned w = 0; w < 8; ++w)
        lru.onFill(2, w, {});
    lru.onHit(2, 5);
    EXPECT_EQ(lru.victimPeek(2), lru.victim(2));
}

TEST(Lru, PositionTracking)
{
    LruPolicy lru;
    lru.reset(1, 4);
    for (unsigned w = 0; w < 4; ++w)
        lru.onFill(0, w, {});
    EXPECT_EQ(lru.positionOf(0, 3), 0u); // most recent fill = MRU
    EXPECT_EQ(lru.positionOf(0, 0), 3u); // oldest = LRU
}

TEST(StackPolicy, HitPromotesToMru)
{
    LruPolicy lru;
    lru.reset(1, 4);
    lru.onHit(0, 2);
    EXPECT_EQ(lru.positionOf(0, 2), 0u);
}

TEST(StackPolicy, ResetRestoresIdentityOrder)
{
    LruPolicy lru;
    lru.reset(2, 4);
    lru.onHit(1, 3);
    lru.reset(2, 4);
    EXPECT_EQ(lru.positionOf(1, 0), 0u);
    EXPECT_EQ(lru.victim(1), 3u);
}

// ---------------------------------------------------------------------------
// Restore refuses per-set words the policy's operations cannot produce
// ---------------------------------------------------------------------------

// Saved layout: u64 word count, one u64 word per set, then a u64 zero
// (the element count of a retired byte-array layout).
std::size_t wordAt(std::size_t set) { return 8 + 8 * set; }

std::vector<std::uint8_t>
saveState(ReplacementPolicy &policy)
{
    std::vector<std::uint8_t> bytes;
    Serializer s(bytes);
    policy.serialize(s);
    return bytes;
}

void
loadState(ReplacementPolicy &policy, const std::vector<std::uint8_t> &bytes)
{
    Serializer s(bytes.data(), bytes.size(), 0);
    policy.serialize(s);
    s.finish("replacement policy");
}

/** @p bytes with the little-endian u64 at @p at replaced by @p value. */
std::vector<std::uint8_t>
withU64(std::vector<std::uint8_t> bytes, std::size_t at, std::uint64_t value)
{
    for (unsigned i = 0; i < 8; ++i)
        bytes.at(at + i) = static_cast<std::uint8_t>(value >> (8 * i));
    return bytes;
}

TEST(ReplacementRestore, RoundTripKeepsState)
{
    LruPolicy saved;
    saved.reset(4, 8);
    saved.onHit(1, 5);
    saved.onFill(3, 2, {});
    LruPolicy restored;
    restored.reset(4, 8);
    loadState(restored, saveState(saved));
    for (unsigned w = 0; w < 8; ++w) {
        EXPECT_EQ(restored.positionOf(1, w), saved.positionOf(1, w));
        EXPECT_EQ(restored.positionOf(3, w), saved.positionOf(3, w));
    }
    // A 16-way word has no filler nibble; a permutation is accepted.
    LruPolicy sixteen;
    sixteen.reset(2, 16);
    sixteen.onHit(0, 15);
    loadState(sixteen, saveState(sixteen));
    EXPECT_EQ(sixteen.positionOf(0, 15), 0u);
}

TEST(ReplacementRestore, WordCountMustBeTheSetCount)
{
    // Well-formed state of another set count is refused, not resized
    // into: a lookup in a missing set would index past the words.
    LruPolicy three;
    three.reset(3, 8);
    LruPolicy four;
    four.reset(4, 8);
    EXPECT_THROW(loadState(four, saveState(three)), CheckpointError);
    EXPECT_THROW(loadState(three, saveState(four)), CheckpointError);

    // A nonzero byte-array count (with its byte) is state for more than
    // 16 ways, which no cache has.
    std::vector<std::uint8_t> bytes =
        withU64(saveState(four), wordAt(4), 1);
    bytes.push_back(0);
    EXPECT_THROW(loadState(four, bytes), CheckpointError);
}

TEST(ReplacementRestore, StackWordMustBeAPermutation)
{
    LruPolicy lru;
    lru.reset(4, 8);
    const std::vector<std::uint8_t> bytes = saveState(lru);
    const std::uint64_t filler = 0xffffffff00000000ull;
    const std::uint64_t bad[] = {
        filler | 0x76543211, // way 1 twice, way 0 missing
        filler | 0x76543218, // way 8 of an 8-way set
        0x0fffffff76543210,  // a filler nibble is not 0xF
        0,
    };
    for (const std::uint64_t word : bad) {
        EXPECT_THROW(loadState(lru, withU64(bytes, wordAt(2), word)),
                     CheckpointError)
            << std::hex << word;
    }
    // The same check guards 5P, which keeps the same recency stacks.
    Policy5P p5;
    p5.reset(4, 8);
    EXPECT_THROW(loadState(p5, withU64(saveState(p5), wordAt(0),
                                       filler | 0x76543211)),
                 CheckpointError);
    // Restoring a valid word still works after the refusals.
    loadState(lru, withU64(bytes, wordAt(2), filler | 0x01234567));
    EXPECT_EQ(lru.victim(2), 0u);
}

TEST(ReplacementRestore, DrripWordMustHoldTwoBitRrpvs)
{
    DrripPolicy drrip;
    drrip.reset(4, 8);
    const std::vector<std::uint8_t> bytes = saveState(drrip);
    const std::uint64_t filler = 0xffffffff00000000ull;
    EXPECT_THROW(loadState(drrip, withU64(bytes, wordAt(1),
                                          filler | 0x33333334)),
                 CheckpointError)
        << "an RRPV above 3";
    EXPECT_THROW(loadState(drrip, withU64(bytes, wordAt(1),
                                          0xf0ffffff33333333)),
                 CheckpointError)
        << "a filler nibble that is not 0xF";
    loadState(drrip, withU64(bytes, wordAt(1), filler | 0x01230132));
    EXPECT_EQ(drrip.victim(1), 1u) << "lowest-index way at RRPV 3";
}

} // namespace
} // namespace bop
