/**
 * @file
 * Tests for the proportional counters (paper Sec. 5.2).
 */

#include <gtest/gtest.h>

#include "common/prop_counter.hh"
#include "round_trip.hh"

namespace bop
{
namespace
{

TEST(PropCounter, IncrementAndValue)
{
    PropCounterGroup g(4, 12);
    g.increment(2);
    g.increment(2);
    EXPECT_EQ(g.value(2), 2u);
    EXPECT_EQ(g.value(0), 0u);
}

TEST(PropCounter, AllHalvedAtCmax)
{
    PropCounterGroup g(3, 4); // CMAX = 15
    for (int i = 0; i < 8; ++i)
        g.increment(1);
    ASSERT_EQ(g.value(1), 8u);
    g.increment(2); // 1
    // Push counter 0 to CMAX: all halve simultaneously.
    for (int i = 0; i < 15; ++i)
        g.increment(0);
    EXPECT_EQ(g.value(0), 7u);  // 15 -> 7
    EXPECT_EQ(g.value(1), 4u);  // 8 -> 4
    EXPECT_EQ(g.value(2), 0u);  // 1 -> 0
}

TEST(PropCounter, RelativeOrderPreservedByHalving)
{
    PropCounterGroup g(2, 4);
    for (int i = 0; i < 10; ++i)
        g.increment(0);
    for (int i = 0; i < 5; ++i)
        g.increment(1);
    for (int i = 0; i < 10; ++i)
        g.increment(0); // forces halving on the way
    EXPECT_GT(g.value(0), g.value(1));
}

TEST(PropCounter, ArgMinAndMax)
{
    PropCounterGroup g(4, 12);
    g.increment(0);
    g.increment(1);
    g.increment(1);
    g.increment(3);
    EXPECT_EQ(g.argMin(), 2u);
    EXPECT_EQ(g.maxValue(), 2u);
}

TEST(PropCounter, ArgMinTiesToLowestIndex)
{
    PropCounterGroup g(3, 12);
    g.increment(0);
    EXPECT_EQ(g.argMin(), 1u);
}

TEST(PropCounter, Reset)
{
    PropCounterGroup g(2, 8);
    g.increment(0);
    g.reset();
    EXPECT_EQ(g.value(0), 0u);
    EXPECT_EQ(g.maxValue(), 0u);
}

TEST(PropCounter, WidthSetsCmax)
{
    PropCounterGroup g7(1, 7);
    EXPECT_EQ(g7.max(), 127u);
    PropCounterGroup g12(1, 12);
    EXPECT_EQ(g12.max(), 4095u);
}

TEST(PropCounter, GroupsLargerThanFourRequesters)
{
    // The memory-controller fairness groups are sized from the runtime
    // core count; the halving invariant must hold for any group size,
    // not just the paper's 4.
    PropCounterGroup g(16, 7);
    EXPECT_EQ(g.size(), 16u);
    for (std::size_t c = 0; c < 16; ++c) {
        for (std::size_t i = 0; i <= c; ++i)
            g.increment(c);
    }
    EXPECT_EQ(g.argMin(), 0u);
    EXPECT_EQ(g.maxValue(), 16u);
    // Drive counter 15 to CMAX: all sixteen halve together.
    while (g.value(15) != 0 && g.value(15) < g.max() - 1)
        g.increment(15);
    g.increment(15);
    for (std::size_t c = 0; c + 1 < 16; ++c)
        EXPECT_EQ(g.value(c), (c + 1) / 2) << "counter " << c;
    EXPECT_EQ(g.value(15), g.max() / 2);
}

TEST(PropCounter, HalvingPreservesRatiosAtAnySize)
{
    PropCounterGroup g(8, 7);
    for (int i = 0; i < 100; ++i)
        g.increment(5);
    for (int i = 0; i < 50; ++i)
        g.increment(6);
    for (int i = 0; i < 100; ++i)
        g.increment(5); // crosses CMAX, halving everything
    EXPECT_GT(g.value(5), g.value(6));
    EXPECT_GT(g.value(6), g.value(0));
}

TEST(PropCounter, RestoreRefusesAnotherCountWithoutResizing)
{
    PropCounterGroup four(4, 7);
    four.increment(3);
    PropCounterGroup eight(8, 7);
    eight.increment(7);
    EXPECT_THROW(loadBytes(eight, saveBytes(four)), CheckpointError);
    ASSERT_EQ(eight.size(), 8u) << "a refused load keeps the geometry";
    EXPECT_EQ(eight.value(7), 1u);

    PropCounterGroup copy(4, 7);
    loadBytes(copy, saveBytes(four));
    EXPECT_EQ(copy.value(3), 1u);
}

} // namespace
} // namespace bop
