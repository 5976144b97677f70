/**
 * @file
 * Tests for the DPC-2 tuned Best-Offset preset (paper footnote 1,
 * dpc2BoConfig()): dual-bank RR behaviour, the delay queue's timeliness
 * semantics, the aggressive BADSCORE default, and agreement with the
 * paper's configuration on clean streams.
 */

#include <gtest/gtest.h>

#include "core/best_offset.hh"

namespace bop
{
namespace
{

std::vector<LineAddr>
access(BestOffsetPrefetcher &pf, LineAddr line, Cycle cycle,
       bool miss = true, bool pref_hit = false)
{
    std::vector<LineAddr> out;
    pf.onAccess({line, miss, pref_hit, cycle}, out);
    return out;
}

TEST(BoDpc2, DefaultsMatchTheChampionshipTuning)
{
    const BoConfig cfg = dpc2BoConfig();
    EXPECT_EQ(cfg.badScore, 10);
    EXPECT_EQ(cfg.rrBanks, 2u);
    EXPECT_EQ(cfg.rrEntries, 256u); // Table 2 total capacity
    EXPECT_EQ(cfg.delayQueueEntries, 15u);
    EXPECT_EQ(cfg.delayCycles, 60u);
}

TEST(BoDpc2, StartsAsNextLine)
{
    BestOffsetPrefetcher pf(PageSize::FourKB, dpc2BoConfig());
    EXPECT_EQ(pf.currentOffset(), 1);
    EXPECT_TRUE(pf.prefetchEnabled());
    const auto out = access(pf, 10, 0);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 11u);
}

TEST(BoDpc2, DelayQueueInsertsOnlyAfterDelay)
{
    BoConfig cfg = dpc2BoConfig();
    cfg.delayCycles = 100;
    BestOffsetPrefetcher pf(PageSize::FourMB, cfg);

    access(pf, 500, 0);
    EXPECT_EQ(pf.delayQueueSize(), 1u);
    EXPECT_FALSE(pf.rrTable().contains(500));

    // Before the delay elapses the address is still invisible.
    access(pf, 600, 50);
    EXPECT_FALSE(pf.rrTable().contains(500));

    // After the delay it becomes timeliness evidence.
    access(pf, 700, 101);
    EXPECT_TRUE(pf.rrTable().contains(500));
}

TEST(BoDpc2, DelayQueueDropsOldestWhenFull)
{
    BoConfig cfg = dpc2BoConfig();
    cfg.delayQueueEntries = 4;
    cfg.delayCycles = 1000000; // never drains during the test
    BestOffsetPrefetcher pf(PageSize::FourMB, cfg);

    for (LineAddr x = 0; x < 10; ++x)
        access(pf, 100 + x, 0);
    EXPECT_EQ(pf.delayQueueSize(), 4u);
}

TEST(BoDpc2, BanksSplitTheAddressSpace)
{
    // Insert through the delay queue and observe both banks work.
    BoConfig cfg = dpc2BoConfig();
    cfg.delayCycles = 1;
    BestOffsetPrefetcher pf2(PageSize::FourMB, cfg);
    access(pf2, 100, 0); // bank of (100>>1)&1 = 0
    access(pf2, 102, 0); // bank 1
    access(pf2, 999, 10);
    access(pf2, 998, 10);
    EXPECT_TRUE(pf2.rrTable().contains(100));
    EXPECT_TRUE(pf2.rrTable().contains(102));
}

TEST(BoDpc2, LearnsOffsetFromDelayedDemandStream)
{
    // A fast sequential demand stream with no prefetch fills at all:
    // the paper's configuration can only learn through completed
    // prefetches or the off-state D=0 rule; the DPC-2 preset learns
    // timeliness straight from the delay queue.
    BoConfig cfg = dpc2BoConfig();
    cfg.delayCycles = 20;
    cfg.roundMax = 4;
    cfg.badScore = 0;
    BestOffsetPrefetcher pf(PageSize::FourMB, cfg);

    LineAddr x = 0;
    Cycle t = 0;
    for (int i = 0; i < 60 * 52; ++i) {
        access(pf, x, t);
        x += 1;
        t += 4; // 4 cycles between accesses: ~5 lines per delayCycles
    }
    EXPECT_GE(pf.learningPhases(), 1u);
    // The learned offset must be one that covers the delay: with the
    // stream advancing one line per 4 cycles and a 20-cycle delay, an
    // offset >= 5 is timely; offsets below score poorly.
    EXPECT_GE(pf.currentOffset(), 5);
}

TEST(BoDpc2, AggressiveBadScoreTurnsPrefetchOffOnNoise)
{
    BoConfig cfg = dpc2BoConfig();
    cfg.roundMax = 2;
    BestOffsetPrefetcher pf(PageSize::FourMB, cfg);

    // Pseudo-random accesses: no offset can reach a score above 10.
    std::uint64_t state = 12345;
    Cycle t = 0;
    for (int i = 0; i < 52 * 3; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        access(pf, (state >> 20) & 0xffffff, t += 7);
    }
    EXPECT_GE(pf.learningPhases(), 1u);
    EXPECT_FALSE(pf.prefetchEnabled());
    // And with prefetch off, no candidates are produced.
    EXPECT_TRUE(access(pf, 42, t + 1).empty());
    // Nor does a fill train the RR table as if D = 0: the delay queue
    // carries that signal instead.
    pf.onFill({5000, false, t + 2});
    EXPECT_FALSE(pf.rrTable().contains(5000));
}

TEST(BoDpc2, PaperConfigTrainsOnFillsWhilePrefetchOff)
{
    // The same noise with the paper's config but BADSCORE 10: prefetch
    // turns off, and fills then record the fetched line (D = 0).
    BoConfig cfg;
    cfg.roundMax = 2;
    cfg.badScore = 10;
    BestOffsetPrefetcher pf(PageSize::FourMB, cfg);
    std::uint64_t state = 12345;
    Cycle t = 0;
    for (int i = 0; i < 52 * 3; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        access(pf, (state >> 20) & 0xffffff, t += 7);
    }
    ASSERT_FALSE(pf.prefetchEnabled());
    pf.onFill({5000, false, t + 2});
    EXPECT_TRUE(pf.rrTable().contains(5000));
}

TEST(BoDpc2, FillsTrainRrWhenPrefetchOn)
{
    BestOffsetPrefetcher pf(PageSize::FourMB, dpc2BoConfig());
    // currentOffset is 1 initially; a completed prefetch of Y trains
    // base Y-1.
    pf.onFill({301, true, 0});
    EXPECT_TRUE(pf.rrTable().contains(300));
    // Non-prefetch fills do not train.
    pf.onFill({401, false, 0});
    EXPECT_FALSE(pf.rrTable().contains(400));
}

TEST(BoDpc2, UsesTheSame52OffsetList)
{
    BestOffsetPrefetcher pf(PageSize::FourMB, dpc2BoConfig());
    EXPECT_EQ(pf.offsetList().size(), 52u);
    EXPECT_EQ(pf.offsetList().front(), 1);
    EXPECT_EQ(pf.offsetList().back(), 256);
}

TEST(BoDpc2, AgreesWithBaseBoOnCleanStridedStream)
{
    // Both variants must converge to a multiple of the stride on a
    // clean strided stream with completed-prefetch feedback.
    BoConfig base_cfg;
    base_cfg.roundMax = 8;
    BestOffsetPrefetcher base(PageSize::FourMB, base_cfg);
    BoConfig dpc2_cfg = dpc2BoConfig();
    dpc2_cfg.roundMax = 8;
    dpc2_cfg.delayCycles = 0; // isolate the learning-rule comparison
    // With roundMax = 8 the maximum reachable score is 8; the DPC-2
    // default BADSCORE of 10 would throttle unconditionally.
    dpc2_cfg.badScore = 1;
    BestOffsetPrefetcher dpc2(PageSize::FourMB, dpc2_cfg);

    LineAddr x = 0;
    Cycle t = 0;
    for (int i = 0; i < 52 * 20; ++i) {
        std::vector<LineAddr> out;
        base.onAccess({x, true, false, t}, out);
        for (const LineAddr tgt : out)
            base.onFill({tgt, true, t + 30});
        out.clear();
        dpc2.onAccess({x, true, false, t}, out);
        for (const LineAddr tgt : out)
            dpc2.onFill({tgt, true, t + 30});
        x += 3;
        t += 10;
    }
    EXPECT_EQ(base.currentOffset() % 3, 0);
    EXPECT_EQ(dpc2.currentOffset() % 3, 0);
}

} // namespace
} // namespace bop
