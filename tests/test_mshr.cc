/**
 * @file
 * Tests for the DL1 MSHR file.
 */

#include <gtest/gtest.h>

#include "cache/mshr.hh"
#include "round_trip.hh"

namespace bop
{
namespace
{

TEST(Mshr, AllocateFindComplete)
{
    MshrFile m(4);
    EXPECT_EQ(m.find(10), nullptr);
    m.allocate(10, false, 5);
    ASSERT_NE(m.find(10), nullptr);
    EXPECT_EQ(m.find(10)->issuedAt, 5u);

    const auto done = m.complete(10);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(m.find(10), nullptr);
    EXPECT_EQ(m.size(), 0u);
}

TEST(Mshr, CoalescingWaiters)
{
    MshrFile m(4);
    m.allocate(20, true, 0);
    MshrEntry *e = m.find(20);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->prefetchOnly);
    e->waiters.push_back(11);
    e->waiters.push_back(12);
    e->prefetchOnly = false;

    const auto done = m.complete(20);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->waiters.size(), 2u);
    EXPECT_FALSE(done->prefetchOnly);
}

TEST(Mshr, FullnessTracking)
{
    MshrFile m(2);
    EXPECT_FALSE(m.full());
    m.allocate(1, false, 0);
    m.allocate(2, false, 0);
    EXPECT_TRUE(m.full());
    m.complete(1);
    EXPECT_FALSE(m.full());
}

TEST(Mshr, CompleteUnknownLineReturnsNothing)
{
    MshrFile m(2);
    EXPECT_FALSE(m.complete(99).has_value());
}

TEST(Mshr, CompleteById)
{
    MshrFile m(4);
    const auto id = m.allocate(30, false, 0);
    m.allocate(31, false, 0);
    const auto done = m.completeById(id);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(done->line, 30u);
    EXPECT_EQ(m.size(), 1u);
}

TEST(Mshr, StoreWaitersResetOnReuse)
{
    MshrFile m(1);
    m.allocate(1, false, 0);
    m.find(1)->storeWaiters = 5;
    m.find(1)->storeIntent = true;
    m.complete(1);
    m.allocate(2, false, 0);
    EXPECT_EQ(m.find(2)->storeWaiters, 0);
    EXPECT_FALSE(m.find(2)->storeIntent);
}

TEST(Mshr, RestoreRebuildsTagsAndLiveCount)
{
    MshrFile m(4);
    m.allocate(100, false, 5);
    const std::uint32_t freed = m.allocate(200, true, 6);
    m.allocate(300, false, 7);
    m.completeById(freed); // slot 1 free, its line left behind
    m.find(100)->waiters.push_back(3);
    const std::vector<std::uint8_t> bytes = saveBytes(m);

    MshrFile restored(4);
    loadBytes(restored, bytes);
    EXPECT_EQ(restored.size(), 2u);
    EXPECT_FALSE(restored.full());
    ASSERT_NE(restored.find(100), nullptr);
    EXPECT_EQ(restored.find(100)->waiters, std::vector<std::uint32_t>{3});
    EXPECT_EQ(restored.find(200), nullptr) << "a free slot holds no line";
    ASSERT_NE(restored.find(300), nullptr);
    EXPECT_EQ(saveBytes(restored), bytes);

    // The rebuilt count gates allocation: two more fill the file.
    restored.allocate(400, false, 8);
    restored.allocate(500, false, 8);
    EXPECT_TRUE(restored.full());
    EXPECT_EQ(restored.complete(300)->issuedAt, 7u);
    EXPECT_EQ(restored.size(), 3u);

    MshrFile other(8);
    EXPECT_THROW(loadBytes(other, bytes), CheckpointError);
    EXPECT_EQ(other.size(), 0u);
}

} // namespace
} // namespace bop
