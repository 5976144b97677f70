/**
 * @file
 * Tests for the set-associative cache tag array and prefetch bits.
 */

#include <gtest/gtest.h>

#include <memory>

#include "cache/cache.hh"

namespace bop
{
namespace
{

SetAssocCache
makeCache(std::uint64_t bytes = 32 * 1024, unsigned ways = 8)
{
    return SetAssocCache("test", bytes, ways,
                         std::make_unique<LruPolicy>());
}

TEST(Cache, Geometry)
{
    auto c = makeCache(32 * 1024, 8);
    EXPECT_EQ(c.numSets(), 64u);
    EXPECT_EQ(c.numWays(), 8u);
}

TEST(Cache, MissThenInsertThenHit)
{
    auto c = makeCache();
    EXPECT_FALSE(c.access(0x1000, false).hit);
    c.insert(0x1000, {});
    EXPECT_TRUE(c.access(0x1000, false).hit);
}

TEST(Cache, PrefetchBitSetOnPrefetchFill)
{
    auto c = makeCache();
    CacheFill fill;
    fill.markPrefetch = true;
    c.insert(0x2000, fill);
    const std::optional<CacheLineState> ls = c.findLine(0x2000);
    ASSERT_TRUE(ls.has_value());
    EXPECT_TRUE(ls->prefetchBit);
}

TEST(Cache, PrefetchedHitReportedOnceThenCleared)
{
    // Sec. 5.6: the prefetch bit is reset when the line is requested
    // from the core side, so only the first hit is a "prefetched hit".
    auto c = makeCache();
    CacheFill fill;
    fill.markPrefetch = true;
    c.insert(0x2000, fill);

    auto first = c.access(0x2000, false, true);
    EXPECT_TRUE(first.hit);
    EXPECT_TRUE(first.prefetchedHit);

    auto second = c.access(0x2000, false, true);
    EXPECT_TRUE(second.hit);
    EXPECT_FALSE(second.prefetchedHit);
}

TEST(Cache, NonCoreSideAccessPreservesPrefetchBit)
{
    auto c = makeCache();
    CacheFill fill;
    fill.markPrefetch = true;
    c.insert(0x2000, fill);
    c.access(0x2000, false, false); // e.g. snoop/writeback path
    EXPECT_TRUE(c.findLine(0x2000)->prefetchBit);
}

TEST(Cache, WriteSetsDirty)
{
    auto c = makeCache();
    c.insert(0x3000, {});
    EXPECT_FALSE(c.findLine(0x3000)->dirty);
    c.access(0x3000, true);
    EXPECT_TRUE(c.findLine(0x3000)->dirty);
}

TEST(Cache, EvictionReturnsDirtyVictim)
{
    auto c = makeCache(64 * 2 * 2, 2); // 2 sets, 2 ways
    // Lines 0, 2, 4 all map to set 0 of the 2 sets.
    c.insert(0, {});
    c.access(0, true); // dirty
    c.insert(2, {});

    const CacheVictim v = c.insert(4, {});
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.line, 0u) << "LRU victim is the oldest line";
    EXPECT_TRUE(v.dirty);
}

TEST(Cache, InsertPrefersInvalidWays)
{
    auto c = makeCache(64 * 4, 4); // 1 set, 4 ways
    for (LineAddr l = 0; l < 4; ++l) {
        const CacheVictim v = c.insert(l, {});
        EXPECT_FALSE(v.valid) << "no eviction while invalid ways remain";
    }
    const CacheVictim v = c.insert(4, {});
    EXPECT_TRUE(v.valid);
}

TEST(Cache, VictimCarriesFillCore)
{
    auto c = makeCache(64 * 2, 2); // 1 set, 2 ways
    CacheFill fill;
    fill.core = 3;
    c.insert(10, fill);
    c.insert(11, {});
    const CacheVictim v = c.insert(12, {});
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.line, 10u);
    EXPECT_EQ(v.core, 3);
}

TEST(Cache, PeekVictimPredictsInsert)
{
    auto c = makeCache(64 * 4, 4);
    for (LineAddr l = 0; l < 4; ++l)
        c.insert(l, {});
    c.access(0, false); // make 0 MRU; victim should be 1
    const CacheVictim peeked = c.peekVictim(100);
    const CacheVictim actual = c.insert(100, {});
    EXPECT_EQ(peeked.valid, actual.valid);
    EXPECT_EQ(peeked.line, actual.line);
}

TEST(Cache, PeekVictimReportsNoEvictionWithInvalidWays)
{
    auto c = makeCache(64 * 4, 4);
    c.insert(0, {});
    EXPECT_FALSE(c.peekVictim(4).valid);
}

TEST(Cache, InvalidateRemovesLine)
{
    auto c = makeCache();
    c.insert(0x4000, {});
    EXPECT_TRUE(c.probe(0x4000));
    EXPECT_TRUE(c.invalidate(0x4000));
    EXPECT_FALSE(c.probe(0x4000));
    EXPECT_FALSE(c.invalidate(0x4000));
}

TEST(Cache, ProbeDoesNotDisturbState)
{
    auto c = makeCache(64 * 2, 2); // 1 set, 2 ways
    c.insert(0, {});
    c.insert(1, {});
    // 0 is LRU. Probing 0 must not promote it.
    EXPECT_TRUE(c.probe(0));
    const CacheVictim v = c.insert(2, {});
    EXPECT_EQ(v.line, 0u);
}

TEST(Cache, RejectsBadGeometry)
{
    // 12 lines / 4 ways = 3 sets: not a power of two.
    EXPECT_THROW(SetAssocCache("bad", 64 * 12, 4,
                               std::make_unique<LruPolicy>()),
                 std::invalid_argument);
    // 1 line / 2 ways = 0 sets.
    EXPECT_THROW(SetAssocCache("bad", 64, 2,
                               std::make_unique<LruPolicy>()),
                 std::invalid_argument);
    EXPECT_THROW(SetAssocCache("bad", 64, 1, nullptr),
                 std::invalid_argument);
}

TEST(Cache, WaysLimitedToOneReplacementWord)
{
    // A set's replacement state is one 64-bit word, 4 bits per way.
    const SetAssocCache sixteen("l3", 64 * 16 * 4, 16,
                                std::make_unique<LruPolicy>());
    EXPECT_EQ(sixteen.numWays(), 16u);
    EXPECT_THROW(SetAssocCache("wide", 64 * 17 * 4, 17,
                               std::make_unique<LruPolicy>()),
                 std::invalid_argument);
    EXPECT_THROW(SetAssocCache("wide", 64 * 24 * 32, 24,
                               std::make_unique<LruPolicy>()),
                 std::invalid_argument);
}

} // namespace
} // namespace bop
