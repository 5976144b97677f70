/**
 * @file
 * Tests for the 8-entry L2 prefetch queue (Sec. 5.4).
 */

#include <gtest/gtest.h>

#include "cache/prefetch_queue.hh"
#include "round_trip.hh"

namespace bop
{
namespace
{

PrefetchRequest
req(LineAddr line, Cycle ready = 0)
{
    PrefetchRequest r;
    r.line = line;
    r.readyAt = ready;
    return r;
}

TEST(PrefetchQueue, FifoOrder)
{
    PrefetchQueue q(8);
    q.insert(req(1));
    q.insert(req(2));
    EXPECT_EQ(q.popReady(0)->line, 1u);
    EXPECT_EQ(q.popReady(0)->line, 2u);
    EXPECT_FALSE(q.popReady(0).has_value());
}

TEST(PrefetchQueue, OldestCancelledOnOverflow)
{
    PrefetchQueue q(3);
    EXPECT_FALSE(q.insert(req(1)));
    EXPECT_FALSE(q.insert(req(2)));
    EXPECT_FALSE(q.insert(req(3)));
    EXPECT_TRUE(q.insert(req(4))) << "oldest (1) must be cancelled";
    EXPECT_EQ(q.size(), 3u);
    EXPECT_FALSE(q.contains(1));
    EXPECT_TRUE(q.contains(4));
    EXPECT_EQ(q.popReady(0)->line, 2u);
}

TEST(PrefetchQueue, ContainsSearch)
{
    PrefetchQueue q(4);
    q.insert(req(77));
    EXPECT_TRUE(q.contains(77));
    EXPECT_FALSE(q.contains(78));
}

TEST(PrefetchQueue, ReadyCycleGating)
{
    PrefetchQueue q(4);
    q.insert(req(5, 10));
    EXPECT_EQ(q.peekReady(9), nullptr);
    EXPECT_FALSE(q.popReady(9).has_value());
    ASSERT_NE(q.peekReady(10), nullptr);
    EXPECT_EQ(q.peekReady(10)->line, 5u);
}

TEST(PrefetchQueue, PeekThenPopFront)
{
    PrefetchQueue q(4);
    q.insert(req(1, 100));
    q.insert(req(2, 0));
    // Oldest *ready* request is 2 (1 not ready yet).
    const PrefetchRequest *p = q.peekReady(0);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(p->line, 2u);
    q.popFront(0);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_TRUE(q.contains(1));
}

TEST(PrefetchQueue, RestoreRebuildsMinReady)
{
    PrefetchQueue q(4);
    q.insert(req(10, 7));
    q.insert(req(11, 3));
    q.insert(req(12, 9));
    ASSERT_EQ(q.popReady(3)->line, 11u);
    const std::vector<std::uint8_t> bytes = saveBytes(q);

    PrefetchQueue restored(4);
    loadBytes(restored, bytes);
    EXPECT_EQ(restored.size(), q.size());
    EXPECT_EQ(restored.minReadyAt(), q.minReadyAt());
    EXPECT_EQ(restored.minReadyAt(), 7u);
    EXPECT_EQ(restored.peekReady(6), nullptr);
    EXPECT_TRUE(restored.contains(12));
    EXPECT_EQ(saveBytes(restored), bytes);
    EXPECT_EQ(restored.popReady(9)->line, 10u);
    EXPECT_EQ(restored.minReadyAt(), 9u);

    // More requests than the capacity are refused before the queue
    // takes them.
    PrefetchQueue small(1);
    EXPECT_THROW(loadBytes(small, bytes), CheckpointError);
    EXPECT_EQ(small.size(), 0u);
    EXPECT_EQ(small.minReadyAt(), neverCycle);
}

} // namespace
} // namespace bop
