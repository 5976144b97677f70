/**
 * @file
 * System-level tests: determinism, stat-window deltas, config plumbing.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "sim/system.hh"
#include "trace/workloads.hh"

namespace bop
{
namespace
{

RunStats
runBench(const std::string &bench, SystemConfig cfg,
         std::uint64_t warm = 3000, std::uint64_t measure = 15000)
{
    System sys(cfg, makeTraces(bench, cfg));
    return sys.run(warm, measure);
}

TEST(System, DeterministicAcrossRuns)
{
    const SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
    const RunStats a = runBench("456.hmmer", cfg);
    const RunStats b = runBench("456.hmmer", cfg);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.dl1Misses, b.dl1Misses);
    EXPECT_EQ(a.dramReads, b.dramReads);
    EXPECT_EQ(a.l2PrefIssued, b.l2PrefIssued);
}

TEST(System, MeasuredWindowHitsInstructionTarget)
{
    const SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
    const RunStats s = runBench("401.bzip2", cfg, 1000, 7777);
    // The final cycle may retire up to retireWidth instructions, so
    // the window can overshoot slightly but never undershoot.
    EXPECT_GE(s.instructions, 7777u);
    EXPECT_LT(s.instructions, 7777u + cfg.core.retireWidth);
}

TEST(System, StatsAreWindowDeltas)
{
    // A short window's counts must be (much) smaller than a long one.
    const SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
    const RunStats small = runBench("437.leslie3d", cfg, 5000, 5000);
    const RunStats big = runBench("437.leslie3d", cfg, 5000, 30000);
    EXPECT_LT(small.dl1Accesses, big.dl1Accesses);
    EXPECT_LT(small.cycles, big.cycles);
}

TEST(System, RejectsTraceCountMismatch)
{
    SystemConfig cfg = baselineConfig(2, PageSize::FourKB);
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.push_back(makeWorkload("429.mcf", 1));
    EXPECT_THROW(System(cfg, std::move(traces)), std::invalid_argument);
}

TEST(System, DeltaStatsSubtractsCounters)
{
    RunStats end, begin;
    end.dl1Accesses = 100;
    begin.dl1Accesses = 40;
    end.dramReads = 10;
    begin.dramReads = 4;
    end.boFinalOffset = 12;
    const RunStats d = deltaStats(end, begin);
    EXPECT_EQ(d.dl1Accesses, 60u);
    EXPECT_EQ(d.dramReads, 6u);
    EXPECT_EQ(d.boFinalOffset, 12) << "end-state fields copied";
}

TEST(System, DeltaStatsDifferencesEveryCumulativeCounter)
{
    // Walk the counter table, so a counter added to RunStats is
    // covered here without editing this test: every cumulative counter
    // must come out as end - begin, every end-of-run one as end.
    RunStats begin, end;
    int k = 1;
#define BOP_FILL(type, name, cumulative)                                   \
    begin.name = static_cast<type>(k);                                     \
    end.name = static_cast<type>(10 * k + 5);                              \
    ++k;
    BOP_RUN_STATS_COUNTERS(BOP_FILL)
#undef BOP_FILL
    const RunStats d = deltaStats(end, begin);
    std::vector<std::string> kept;
#define BOP_CHECK(type, name, cumulative)                                  \
    EXPECT_EQ(d.name, cumulative ? static_cast<type>(end.name - begin.name) \
                                 : end.name)                               \
        << #name;                                                          \
    if (!(cumulative))                                                     \
        kept.push_back(#name);
    BOP_RUN_STATS_COUNTERS(BOP_CHECK)
#undef BOP_CHECK
    EXPECT_EQ(k, 30) << "29 counters";
    // Only the BO learner's end-of-run state is exempt.
    EXPECT_EQ(kept, (std::vector<std::string>{"boLearningPhases",
                                              "boPrefetchOffPhases",
                                              "boFinalOffset",
                                              "boFinalScore"}));
}

TEST(System, BranchStatsPopulated)
{
    const SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
    const RunStats s = runBench("445.gobmk", cfg);
    EXPECT_GT(s.branches, 1000u);
    EXPECT_GT(s.branchMispredicts, 0u);
    EXPECT_LT(s.branchMispredicts, s.branches);
}

TEST(System, ConfigDescribeMentionsKeyFields)
{
    SystemConfig cfg = baselineConfig(2, PageSize::FourMB);
    cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
    const std::string d = cfg.describe();
    EXPECT_NE(d.find("2-core"), std::string::npos);
    EXPECT_NE(d.find("4MB"), std::string::npos);
    EXPECT_NE(d.find("best-offset"), std::string::npos);
    EXPECT_NE(d.find("5P"), std::string::npos);
}

TEST(System, AllPrefetcherKindsRun)
{
    for (const auto kind :
         {L2PrefetcherKind::None, L2PrefetcherKind::NextLine,
          L2PrefetcherKind::FixedOffset, L2PrefetcherKind::BestOffset,
          L2PrefetcherKind::Sandbox, L2PrefetcherKind::Stream,
          L2PrefetcherKind::Fdp, L2PrefetcherKind::Acdc,
          L2PrefetcherKind::StreamBuffer,
          L2PrefetcherKind::BestOffsetDpc2}) {
        SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
        cfg.l2Prefetcher = kind;
        cfg.fixedOffset = 5;
        const RunStats s = runBench("482.sphinx3", cfg, 1000, 5000);
        EXPECT_GE(s.instructions, 5000u) << cfg.describe();
    }
}

TEST(System, AllL3PoliciesRun)
{
    for (const auto policy : {L3PolicyKind::P5, L3PolicyKind::Lru,
                              L3PolicyKind::Drrip}) {
        SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
        cfg.l3Policy = policy;
        const RunStats s = runBench("403.gcc", cfg, 1000, 5000);
        EXPECT_GE(s.instructions, 5000u);
    }
}

TEST(System, FourCoreConfigRuns)
{
    const SystemConfig cfg = baselineConfig(4, PageSize::FourMB);
    const RunStats s = runBench("462.libquantum", cfg, 2000, 8000);
    EXPECT_GE(s.instructions, 8000u);
    EXPECT_GT(s.dramReads + s.dramWrites, 100u)
        << "thrashers must generate DRAM traffic";
}

} // namespace
} // namespace bop
