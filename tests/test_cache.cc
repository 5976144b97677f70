/**
 * @file
 * Tests for the set-associative cache tag array and prefetch bits.
 */

#include <gtest/gtest.h>

#include <memory>

#include "cache/cache.hh"
#include "round_trip.hh"

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

TEST(Cache, FillInsertsAnAbsentLineAndReportsItsVictim)
{
    auto c = makeCache(64 * 2, 2); // 1 set, 2 ways
    CacheFill dirty;
    dirty.markDirty = true;
    EXPECT_TRUE(c.fill(0, dirty).inserted);
    const CacheFillResult second = c.fill(1, {});
    EXPECT_TRUE(second.inserted);
    EXPECT_FALSE(second.victim.valid) << "an invalid way was free";

    CacheFill prefetch;
    prefetch.markPrefetch = true;
    const CacheFillResult third = c.fill(2, prefetch);
    EXPECT_TRUE(third.inserted);
    EXPECT_TRUE(third.victim.valid);
    EXPECT_EQ(third.victim.line, 0u) << "LRU victim is the oldest line";
    EXPECT_TRUE(third.victim.dirty);
    EXPECT_TRUE(c.findLine(2)->prefetchBit);
    EXPECT_FALSE(c.probe(0));
}

TEST(Cache, DirtyFillOfAResidentLineIsAWriteHit)
{
    auto c = makeCache(64 * 2, 2); // 1 set, 2 ways
    CacheFill prefetch;
    prefetch.markPrefetch = true;
    c.insert(0, prefetch);
    c.insert(1, {});
    ASSERT_EQ(c.peekVictim(2).line, 0u);

    CacheFill writeback;
    writeback.markDirty = true;
    const CacheFillResult res = c.fill(0, writeback);
    EXPECT_FALSE(res.inserted);
    EXPECT_FALSE(res.victim.valid);
    const std::optional<CacheLineState> ls = c.findLine(0);
    ASSERT_TRUE(ls.has_value());
    EXPECT_TRUE(ls->dirty);
    EXPECT_TRUE(ls->prefetchBit) << "a write hit is not a core request";
    EXPECT_EQ(c.peekVictim(2).line, 1u)
        << "the hit updated the replacement state";
}

TEST(Cache, CleanFillOfAResidentLineChangesNothing)
{
    auto c = makeCache(64 * 2, 2); // 1 set, 2 ways
    c.insert(0, {});
    c.insert(1, {});
    const std::vector<std::uint8_t> before = saveBytes(c);

    CacheFill prefetch;
    prefetch.core = 3;
    prefetch.demand = false;
    prefetch.markPrefetch = true;
    const CacheFillResult res = c.fill(0, prefetch);
    EXPECT_FALSE(res.inserted);
    EXPECT_FALSE(res.victim.valid);
    EXPECT_EQ(saveBytes(c), before);
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

TEST(Cache, RestoreRebuildsValidWays)
{
    // 4 sets x 4 ways. Set 0 is full; set 1 has a hole left by an
    // invalidation, so its next fill must take that way.
    SetAssocCache c = makeCache(1024, 4);
    for (LineAddr l = 0; l < 16; l += 4)
        c.insert(l, {});
    c.access(0, true);
    for (LineAddr l = 1; l < 16; l += 4)
        c.insert(l, {});
    c.invalidate(5);
    const std::vector<std::uint8_t> bytes = saveBytes(c);

    SetAssocCache restored = makeCache(1024, 4);
    loadBytes(restored, bytes);
    for (LineAddr l = 0; l < 20; ++l)
        EXPECT_EQ(restored.probe(l), c.probe(l)) << "line " << l;
    const CacheVictim full = restored.peekVictim(16);
    EXPECT_TRUE(full.valid);
    EXPECT_EQ(full.line, c.peekVictim(16).line);
    EXPECT_EQ(full.line, 4u) << "line 0 was touched after the fills";
    EXPECT_FALSE(restored.peekVictim(17).valid) << "the hole is free";
    EXPECT_FALSE(restored.insert(17, {}).valid);
    EXPECT_EQ(restored.findLine(17)->line, 17u);
    EXPECT_TRUE(restored.findLine(0)->dirty);
}

TEST(Cache, RestoreRefusesAnotherTagCountWithoutResizing)
{
    SetAssocCache small = makeCache(1024, 4);
    small.insert(3, {});
    const std::vector<std::uint8_t> before = saveBytes(small);
    SetAssocCache large = makeCache(2048, 4);
    EXPECT_THROW(loadBytes(small, saveBytes(large)), CheckpointError);
    EXPECT_EQ(saveBytes(small), before)
        << "a refused load leaves the tag array as it was";
    EXPECT_TRUE(small.probe(3));
    small.insert(15, {});
    EXPECT_TRUE(small.probe(15)) << "the last set still works";
}

} // namespace
} // namespace bop
