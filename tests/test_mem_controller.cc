/**
 * @file
 * Tests for the fairness-aware memory controller (paper Sec. 5.3).
 */

#include <gtest/gtest.h>

#include "dram/mem_controller.hh"
#include "round_trip.hh"

namespace bop
{
namespace
{

ReqMeta
meta(CoreId core)
{
    ReqMeta m;
    m.core = core;
    m.l3FillId = 1;
    return m;
}

/** Line address landing on this channel with a given bank/row flavor. */
LineAddr
lineWithRow(std::uint64_t row, std::uint32_t off = 0)
{
    return ((row << 17) | (static_cast<std::uint64_t>(off) << 6)) >> 6;
}

TEST(MemController, ReadCompletes)
{
    MemoryController mc(DramTiming{}, 0, 4);
    mc.enqueueRead(lineWithRow(1), meta(0), 0);
    std::vector<CompletedRead> done;
    for (Cycle now = 0; now < 1000 && done.empty(); ++now) {
        mc.tick(now);
        auto v = mc.popCompleted(now);
        done.insert(done.end(), v.begin(), v.end());
    }
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].line, lineWithRow(1));
    EXPECT_GT(done[0].finishCycle, 0u);
    EXPECT_EQ(mc.stats().reads, 1u);
}

TEST(MemController, QueueCapacityPerCore)
{
    MemoryController mc(DramTiming{}, 0, 4);
    for (std::size_t i = 0; i < MemoryController::queueCapacity; ++i) {
        EXPECT_FALSE(mc.readQueueFull(2));
        mc.enqueueRead(lineWithRow(i), meta(2), 0);
    }
    EXPECT_TRUE(mc.readQueueFull(2));
    EXPECT_FALSE(mc.readQueueFull(1)) << "queues are per core";
}

TEST(MemController, ReadQueueSearch)
{
    MemoryController mc(DramTiming{}, 0, 4);
    mc.enqueueRead(lineWithRow(7), meta(1), 0);
    EXPECT_TRUE(mc.readQueueContains(lineWithRow(7)));
    EXPECT_FALSE(mc.readQueueContains(lineWithRow(8)));
}

TEST(MemController, FrFcfsPrefersRowHits)
{
    MemoryController mc(DramTiming{}, 0, 4);
    // Open row 1 via an initial read, run it to completion.
    mc.enqueueRead(lineWithRow(1, 0), meta(0), 0);
    Cycle now = 0;
    while (mc.anyPending()) {
        mc.tick(now);
        mc.popCompleted(now);
        ++now;
    }
    // Now enqueue a row-conflict first, then a row-hit: FR-FCFS must
    // finish the row hit first despite its later arrival.
    mc.enqueueRead(lineWithRow(9, 0), meta(0), now);
    mc.enqueueRead(lineWithRow(1, 5), meta(0), now);
    std::vector<CompletedRead> done;
    while (done.size() < 2) {
        mc.tick(now);
        auto v = mc.popCompleted(now);
        done.insert(done.end(), v.begin(), v.end());
        ++now;
    }
    EXPECT_EQ(done[0].line, lineWithRow(1, 5));
    EXPECT_EQ(done[1].line, lineWithRow(9, 0));
    EXPECT_GE(mc.stats().rowHits, 1u);
}

TEST(MemController, RowHitsCounted)
{
    MemoryController mc(DramTiming{}, 0, 4);
    for (std::uint32_t i = 0; i < 8; ++i)
        mc.enqueueRead(lineWithRow(3, i), meta(0), 0);
    Cycle now = 0;
    while (mc.anyPending()) {
        mc.tick(now);
        mc.popCompleted(now);
        ++now;
    }
    EXPECT_EQ(mc.stats().reads, 8u);
    EXPECT_EQ(mc.stats().rowHits, 7u) << "first access opens the row";
}

TEST(MemController, WriteBatchOnFullQueue)
{
    MemoryController mc(DramTiming{}, 0, 4);
    for (std::size_t i = 0; i < MemoryController::queueCapacity; ++i)
        mc.enqueueWrite(lineWithRow(i), 0, 0);
    ASSERT_TRUE(mc.writeQueueFull(0));
    Cycle now = 0;
    while (mc.writeQueueFull(0) && now < 10000) {
        mc.tick(now);
        ++now;
    }
    EXPECT_FALSE(mc.writeQueueFull(0));
    EXPECT_GE(mc.stats().writeBatches, 1u);
    EXPECT_GE(mc.stats().writes, 1u);
}

TEST(MemController, IdleWritesDrainEventually)
{
    MemoryController mc(DramTiming{}, 0, 4);
    mc.enqueueWrite(lineWithRow(5), 1, 0);
    Cycle now = 0;
    while (mc.anyPending() && now < 10000) {
        mc.tick(now);
        ++now;
    }
    EXPECT_EQ(mc.stats().writes, 1u);
}

TEST(MemController, FairnessServesBothCores)
{
    MemoryController mc(DramTiming{}, 0, 4);
    // Core 1 floods row hits; core 0 has scattered reads. The
    // proportional counters + urgent mode must keep core 0 served.
    Cycle now = 0;
    std::uint64_t c0_done = 0;
    std::uint64_t row = 0;
    for (; now < 40000; ++now) {
        if (!mc.readQueueFull(1))
            mc.enqueueRead(lineWithRow(100, (now / 7) % 128),
                           meta(1), now);
        if (now % 200 == 0 && !mc.readQueueFull(0))
            mc.enqueueRead(lineWithRow(row += 3), meta(0), now);
        mc.tick(now);
        for (const auto &r : mc.popCompleted(now))
            c0_done += r.meta.core == 0;
    }
    EXPECT_GT(c0_done, 50u) << "core 0 must not be starved";
}

TEST(MemController, UrgentModeRequiresFillQueueSpace)
{
    MemoryController mc(DramTiming{}, 0, 4);
    mc.setL3FillQueueFull(true);
    // With the fill queue full, urgent issues are suppressed; steady
    // mode still works.
    mc.enqueueRead(lineWithRow(1), meta(0), 0);
    Cycle now = 0;
    while (mc.anyPending() && now < 5000) {
        mc.tick(now);
        mc.popCompleted(now);
        ++now;
    }
    EXPECT_EQ(mc.stats().reads, 1u);
    EXPECT_EQ(mc.stats().urgentIssues, 0u);
}

TEST(MemController, RestoreRebuildsDerivedState)
{
    // Two cores' reads and writes, ticked until some reads finished
    // unclaimed and others still wait, then saved off a bus edge.
    MemoryController mc(DramTiming{}, 1, 2);
    for (std::uint32_t i = 0; i < 6; ++i) {
        mc.enqueueRead(lineWithRow(i % 3, i), meta(i % 2), 0);
        mc.enqueueWrite(lineWithRow(9 + i, i), i % 2, 0);
    }
    const unsigned ratio = DramTiming{}.busRatio;
    Cycle now = 0;
    while (mc.stats().reads < 3 && now < 10000)
        mc.tick(now++);
    while ((now - 1) % ratio == 0)
        mc.tick(now++); // save off a bus edge
    const Cycle saved_at = now - 1;
    ASSERT_TRUE(mc.hasCompletedReads());
    ASSERT_GT(mc.readQueueSize(0) + mc.readQueueSize(1), 0u);
    const std::vector<std::uint8_t> bytes = saveBytes(mc);

    MemoryController restored(DramTiming{}, 1, 2);
    loadBytes(restored, bytes);
    EXPECT_EQ(restored.nextCompletionAt(), mc.nextCompletionAt());
    EXPECT_NE(restored.nextCompletionAt(), neverCycle);
    EXPECT_EQ(restored.anyPending(), mc.anyPending());
    EXPECT_EQ(restored.nextEventAt(saved_at), mc.nextEventAt(saved_at));
    for (std::uint32_t i = 0; i < 6; ++i) {
        const LineAddr line = lineWithRow(i % 3, i);
        EXPECT_EQ(restored.readQueueContains(line),
                  mc.readQueueContains(line))
            << "read " << i;
    }
    EXPECT_EQ(saveBytes(restored), bytes);

    // Run both on: the rebuilt bus edges, row coordinates and counts
    // must schedule and complete exactly as the original does.
    std::vector<LineAddr> a, b;
    for (; now < saved_at + 5000; ++now) {
        mc.tick(now);
        restored.tick(now);
        for (const CompletedRead &r : mc.popCompleted(now))
            a.push_back(r.line);
        for (const CompletedRead &r : restored.popCompleted(now))
            b.push_back(r.line);
        ASSERT_EQ(restored.nextEventAt(now), mc.nextEventAt(now)) << now;
    }
    EXPECT_EQ(a.size(), 6u);
    EXPECT_EQ(a, b);
    EXPECT_EQ(restored.stats().writes, 6u);
    EXPECT_FALSE(restored.anyPending());
    EXPECT_EQ(saveBytes(restored), saveBytes(mc))
        << "same bank, bus and row-buffer state";
}

} // namespace
} // namespace bop
