/**
 * @file
 * Tests for the Recent Requests table (paper Secs. 4.1 / 4.4).
 */

#include <gtest/gtest.h>

#include "core/rr_table.hh"

namespace bop
{
namespace
{

TEST(RrTable, InsertThenContains)
{
    RrTable rr;
    EXPECT_FALSE(rr.contains(0x12345));
    rr.insert(0x12345);
    EXPECT_TRUE(rr.contains(0x12345));
}

TEST(RrTable, DefaultGeometryMatchesPaper)
{
    RrTable rr;
    EXPECT_EQ(rr.numEntries(), 256u);
    EXPECT_EQ(rr.tagBits(), 12u);
}

TEST(RrTable, IndexIsXorOfLowBytes)
{
    // Sec. 4.4: for 256 entries, XOR the 8 LSBs of the line address
    // with the next 8 bits.
    RrTable rr(256, 12);
    const LineAddr line = 0xabcdef;
    const std::size_t expected = ((line & 0xff) ^ ((line >> 8) & 0xff));
    EXPECT_EQ(rr.indexOf(line), expected);
}

TEST(RrTable, TagSkipsIndexBits)
{
    // Sec. 4.4: skip the 8 LSBs, extract the next 12 bits.
    RrTable rr(256, 12);
    const LineAddr line = 0xdeadbeef;
    EXPECT_EQ(rr.tagOf(line), (line >> 8) & 0xfff);
}

TEST(RrTable, DirectMappedConflictEvicts)
{
    RrTable rr(256, 12);
    // Two lines with the same index but different tags.
    const LineAddr a = 0x00012; // index = 0x12
    LineAddr b = 0;
    bool found = false;
    for (LineAddr cand = a + 1; cand < a + 2000000 && !found; ++cand) {
        if (rr.indexOf(cand) == rr.indexOf(a) &&
            rr.tagOf(cand) != rr.tagOf(a)) {
            b = cand;
            found = true;
        }
    }
    ASSERT_TRUE(found);
    rr.insert(a);
    EXPECT_TRUE(rr.contains(a));
    rr.insert(b);
    EXPECT_TRUE(rr.contains(b));
    EXPECT_FALSE(rr.contains(a)) << "direct-mapped entry must be evicted";
}

TEST(RrTable, PartialTagAliasing)
{
    // Lines whose index and 12-bit tag agree alias — by design, the
    // partial tag is "sufficient" (Sec. 4.1) but not exact.
    RrTable rr(256, 12);
    const LineAddr a = 0x1234;
    const LineAddr aliased = a + (1ull << 20); // beyond index+tag bits
    ASSERT_EQ(rr.indexOf(a), rr.indexOf(aliased));
    ASSERT_EQ(rr.tagOf(a), rr.tagOf(aliased));
    rr.insert(a);
    EXPECT_TRUE(rr.contains(aliased));
}

TEST(RrTable, BanksSplitOnLineBit1)
{
    // DPC-2 banking: each bank indexes and tags like a table of its
    // own size, and line bit 1 picks the bank.
    RrTable banked(256, 12, 2);
    const RrTable half(128, 12);
    EXPECT_EQ(banked.numEntries(), 256u);
    for (LineAddr line = 0; line < 100000; line += 7) {
        const std::size_t bank = (line >> 1) & 1;
        EXPECT_EQ(banked.indexOf(line), bank * 128 + half.indexOf(line));
        EXPECT_EQ(banked.tagOf(line), half.tagOf(line));
    }
    // Lines 0 and 258 (bit 1 set) conflict in one 128-entry table but
    // sit in different banks here.
    ASSERT_EQ(half.indexOf(0), half.indexOf(258));
    banked.insert(0);
    banked.insert(258);
    EXPECT_TRUE(banked.contains(0));
    EXPECT_TRUE(banked.contains(258));
}

TEST(RrTable, ClearInvalidatesEverything)
{
    RrTable rr(64, 10);
    for (LineAddr l = 0; l < 512; l += 3)
        rr.insert(l);
    rr.clear();
    for (LineAddr l = 0; l < 512; ++l)
        EXPECT_FALSE(rr.contains(l));
}

class RrTableSizes : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(RrTableSizes, FillAndProbeAnySize)
{
    // Fig. 10 sweeps the RR size from 32 to 512; all sizes must work.
    RrTable rr(GetParam(), 12);
    // Insert a distinct-index sample and check immediate recall.
    for (LineAddr l = 1000; l < 1000 + GetParam(); ++l) {
        rr.insert(l);
        EXPECT_TRUE(rr.contains(l)) << l;
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RrTableSizes,
                         ::testing::Values(32, 64, 128, 256, 512));

} // namespace
} // namespace bop
