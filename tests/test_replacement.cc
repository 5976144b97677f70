/**
 * @file
 * Tests for the stack-based replacement policy (LRU).
 */

#include <gtest/gtest.h>

#include "cache/replacement.hh"

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

} // namespace
} // namespace bop
