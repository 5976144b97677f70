/**
 * @file
 * Cross-configuration equivalence pins: configurations the design says
 * must behave identically really do, cycle for cycle. These tests turn
 * implicit "X is just Y with parameter Z" claims into checked
 * invariants, so refactors cannot silently fork the semantics.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "sim/system.hh"
#include "trace/workloads.hh"

namespace bop
{
namespace
{

RunStats
runCfg(const SystemConfig &cfg, const std::string &bench = "410.bwaves",
       std::uint64_t warm = 20000, std::uint64_t meas = 50000)
{
    System sys(cfg, makeTraces(bench, cfg));
    return sys.run(warm, meas);
}

bool
sameExecution(const RunStats &a, const RunStats &b)
{
    return a.cycles == b.cycles && a.instructions == b.instructions &&
           a.l2Misses == b.l2Misses &&
           a.l2PrefIssued == b.l2PrefIssued &&
           a.dramReads == b.dramReads && a.dramWrites == b.dramWrites;
}

TEST(Equivalences, NextLineIsFixedOffsetOne)
{
    // The paper's default L2 prefetcher (Sec. 5.6) is the D=1 point of
    // the fixed-offset family.
    SystemConfig nl = baselineConfig(1, PageSize::FourKB);
    nl.l2Prefetcher = L2PrefetcherKind::NextLine;
    SystemConfig fixed1 = nl;
    fixed1.l2Prefetcher = L2PrefetcherKind::FixedOffset;
    fixed1.fixedOffset = 1;
    EXPECT_TRUE(sameExecution(runCfg(nl), runCfg(fixed1)));
}

TEST(Equivalences, CoverageWeightZeroIsPaperBo)
{
    // The hybrid-scoring extension with weight 0 must not perturb the
    // paper configuration in any way (scoring, throttling, timing).
    SystemConfig bo = baselineConfig(1, PageSize::FourMB);
    bo.l2Prefetcher = L2PrefetcherKind::BestOffset;
    SystemConfig cov0 = bo;
    cov0.bo.coverageWeight = 0; // explicit default
    EXPECT_TRUE(sameExecution(runCfg(bo, "470.lbm"),
                              runCfg(cov0, "470.lbm")));
}

TEST(Equivalences, AdaptiveBadScoreWithPinnedBoundsIsStatic)
{
    // With min == max == the static value, the adaptive controller has
    // nowhere to move: execution must match the static configuration.
    SystemConfig bo = baselineConfig(1, PageSize::FourMB);
    bo.l2Prefetcher = L2PrefetcherKind::BestOffset;
    bo.bo.badScore = 1;
    SystemConfig pinned = bo;
    pinned.bo.adaptiveBadScore = true;
    pinned.bo.badScoreMin = 1;
    pinned.bo.badScoreMax = 1;
    EXPECT_TRUE(sameExecution(runCfg(bo, "462.libquantum"),
                              runCfg(pinned, "462.libquantum")));
}

TEST(Equivalences, SeedChangesExecutionButNotValidity)
{
    // Different seeds randomise paging and generator details; the
    // counters move, the invariants hold.
    SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
    cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
    const RunStats a = runCfg(cfg);
    cfg.seed = 4242;
    const RunStats b = runCfg(cfg);
    EXPECT_NE(a.cycles, b.cycles);
    for (const RunStats *s : {&a, &b}) {
        EXPECT_LE(s->l2PrefFills, s->l2PrefIssued);
        EXPECT_GE(s->instructions, 50000u);
    }
}

TEST(Equivalences, PrewarmOnlyAffectsColdStart)
{
    // Pre-warming fills the L3 with placeholder lines
    // (docs/WORKLOADS.md, "L3 pre-warming"); on a small cache-resident
    // workload that never contends for the L3, steady-state IPC must
    // converge to the same value.
    SystemConfig warm = baselineConfig(1, PageSize::FourKB);
    SystemConfig cold = warm;
    cold.prewarmL3 = false;
    const RunStats a = runCfg(warm, "416.gamess", 60000, 40000);
    const RunStats b = runCfg(cold, "416.gamess", 60000, 40000);
    EXPECT_NEAR(a.ipc(), b.ipc(), 0.05 * a.ipc());
}

} // namespace
} // namespace bop
