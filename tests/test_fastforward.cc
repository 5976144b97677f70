/**
 * @file
 * Event-horizon fast-forward tests.
 *
 * The fast-forward is gated hard on cycle-exactness, so the tests here
 * are equivalence proofs, not behavior checks:
 *
 *  - golden equivalence: every pinned topology config (the 18
 *    bench x cores x page combinations of tests/test_topology.cc) and
 *    a prefetcher sweep produce bit-identical RunStats and final cycle
 *    counts with fast-forward on and off;
 *  - horizon soundness: single-stepping a reference (fast-forward off)
 *    system, the published nextEventCycle() must never claim a jump
 *    across a cycle in which observable state or a core's saved bytes
 *    then change (every skipped cycle up to the horizon is checked),
 *    and the System's cached horizon is never later than a fresh one;
 *  - per-component contracts: MemoryController::nextEventAt against
 *    brute-force single-stepping, and the min-readyAt gates of
 *    FillQueue / PrefetchQueue that feed the hierarchy horizon.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cache/fill_queue.hh"
#include "cache/prefetch_queue.hh"
#include "common/serializer.hh"
#include "dram/mem_controller.hh"
#include "harness/experiment.hh"
#include "sim/system.hh"
#include "trace/generators.hh"
#include "trace/workloads.hh"

namespace bop
{
namespace
{

// ---------------------------------------------------------------------------
// Golden equivalence: fast-forward on vs off
// ---------------------------------------------------------------------------

struct RunOutcome
{
    RunStats stats;
    Cycle finalCycle = 0;
};

RunOutcome
runBench(const std::string &bench, SystemConfig cfg, bool fast_forward,
         std::uint64_t warmup, std::uint64_t measure)
{
    cfg.fastForward = fast_forward;
    System sys(cfg, makeTraces(bench, cfg));
    RunOutcome out;
    out.stats = sys.run(warmup, measure);
    out.finalCycle = sys.currentCycle();
    return out;
}

void
expectEquivalent(const std::string &bench, const SystemConfig &cfg,
                 std::uint64_t warmup, std::uint64_t measure,
                 const std::string &label)
{
    const RunOutcome on = runBench(bench, cfg, true, warmup, measure);
    const RunOutcome off = runBench(bench, cfg, false, warmup, measure);
    EXPECT_TRUE(on.stats == off.stats) << label;
    EXPECT_EQ(on.finalCycle, off.finalCycle) << label;
    // Spot-check a couple of fields so a broken operator== cannot
    // silently vacuously pass.
    EXPECT_EQ(on.stats.cycles, off.stats.cycles) << label;
    EXPECT_EQ(on.stats.dramReads, off.stats.dramReads) << label;
}

TEST(FastForwardEquivalence, PinnedTopologyConfigsBitIdentical)
{
    // The bench x cores x page grid pinned in tests/test_topology.cc
    // (which separately asserts the fast-forward-on cycle counts
    // against the pre-refactor goldens).
    const char *benches[] = {"462.libquantum", "429.mcf", "470.lbm"};
    for (const char *bench : benches) {
        for (const int cores : {1, 2, 4}) {
            for (const PageSize page :
                 {PageSize::FourKB, PageSize::FourMB}) {
                SystemConfig cfg = baselineConfig(cores, page);
                cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
                expectEquivalent(
                    bench, cfg, 5000, 20000,
                    std::string(bench) + " " + gridLabel(cores, page));
            }
        }
    }
}

TEST(FastForwardEquivalence, PrefetcherSweepBitIdentical)
{
    // Every prefetcher exercises a different idle/busy pattern (and
    // bo-dpc2 a delay queue); each must be jump-exact.
    for (const auto kind :
         {L2PrefetcherKind::None, L2PrefetcherKind::NextLine,
          L2PrefetcherKind::Sandbox, L2PrefetcherKind::Fdp,
          L2PrefetcherKind::StreamBuffer,
          L2PrefetcherKind::BestOffsetDpc2}) {
        SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
        cfg.l2Prefetcher = kind;
        expectEquivalent("429.mcf", cfg, 3000, 12000,
                         "prefetcher kind " +
                             std::to_string(static_cast<int>(kind)));
    }
}

TEST(FastForwardEquivalence, EnvOverrideDisables)
{
    SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
    ASSERT_TRUE(cfg.fastForward) << "fast-forward defaults on";
    ::setenv("BOP_DISABLE_FASTFORWARD", "1", 1);
    System forced(cfg, makeTraces("470.lbm", cfg));
    EXPECT_FALSE(forced.fastForwardEnabled());
    ::setenv("BOP_DISABLE_FASTFORWARD", "0", 1);
    System zero(cfg, makeTraces("470.lbm", cfg));
    EXPECT_TRUE(zero.fastForwardEnabled()) << "\"0\" means not disabled";
    ::unsetenv("BOP_DISABLE_FASTFORWARD");
    cfg.fastForward = false;
    System off(cfg, makeTraces("470.lbm", cfg));
    EXPECT_FALSE(off.fastForwardEnabled()) << "config switch";
}

// ---------------------------------------------------------------------------
// Horizon soundness against brute-force single-stepping
// ---------------------------------------------------------------------------

/** Everything the stats surface can see about a system. */
std::vector<std::uint64_t>
observableState(System &sys)
{
    const RunStats s = sys.hierarchy().collectStats();
    std::vector<std::uint64_t> v = {
        s.dl1Accesses, s.dl1Misses,  s.dl1PrefIssued, s.l2Accesses,
        s.l2Misses,    s.l2PrefIssued, s.l2PrefFills, s.l2PrefDropped,
        s.l2LatePromotions, s.l3Accesses, s.l3Misses, s.dramReads,
        s.dramWrites,  s.dtlb1Misses};
    for (int c = 0; c < sys.coreCount(); ++c) {
        v.push_back(sys.core(c).retired());
        v.push_back(sys.core(c).robOccupancy());
        v.push_back(sys.core(c).branchCount());
    }
    return v;
}

/** Every core's checkpoint bytes: all of its state a save keeps. */
std::vector<std::uint8_t>
coreBytes(System &sys)
{
    std::vector<std::uint8_t> bytes;
    Serializer s(bytes);
    for (int c = 0; c < sys.coreCount(); ++c)
        sys.core(c).serialize(s);
    return bytes;
}

/**
 * @param blocked_jumps if set, receives the number of steps that began
 *        with a request due at a full L3 fill queue and the hierarchy's
 *        own horizon past the next cycle
 */
void
expectHorizonSound(SystemConfig cfg, const std::string &bench,
                   std::uint64_t instrs,
                   std::uint64_t *blocked_jumps = nullptr)
{
    cfg.fastForward = false; // brute-force reference stepping
    System sys(cfg, makeTraces(bench, cfg));
    std::uint64_t skipped = 0;
    while (sys.core(0).retired() < instrs) {
        const Cycle now = sys.currentCycle();
        const Cycle horizon = sys.nextEventCycle();
        ASSERT_GT(horizon, now);
        if (blocked_jumps && sys.hierarchy().l3EntryBlocked(now) &&
            sys.hierarchy().nextEventAt(now) > now + 1)
            ++*blocked_jumps;
        const auto before = observableState(sys);
        const auto cores_before =
            horizon > now + 1 ? coreBytes(sys) : std::vector<std::uint8_t>{};
        // Every cycle the horizon jumps over must be a no-op tick, down
        // to the cores' saved bytes (a skipped tick is no checkpoint
        // event either).
        while (sys.currentCycle() + 1 < horizon) {
            sys.step();
            ++skipped;
            ASSERT_EQ(before, observableState(sys))
                << "horizon computed at cycle " << now << " claimed the "
                << "next event at " << horizon << ", but the tick at "
                << sys.currentCycle() << " changed observable state";
            ASSERT_TRUE(cores_before == coreBytes(sys))
                << "horizon computed at cycle " << now << " claimed the "
                << "next event at " << horizon << ", but the tick at "
                << sys.currentCycle() << " changed a core's saved state";
        }
        sys.step(); // the horizon tick itself may act
    }
    EXPECT_GT(skipped, 0u) << "the run must exercise some jumps";
}

TEST(FastForwardSoundness, SingleCorePointerChase)
{
    SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
    cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
    expectHorizonSound(cfg, "429.mcf", 12000);
}

TEST(FastForwardSoundness, FourCoreContention)
{
    SystemConfig cfg = baselineConfig(4, PageSize::FourKB);
    cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
    expectHorizonSound(cfg, "462.libquantum", 8000);
}

TEST(FastForwardSoundness, LongReadyListStreaming)
{
    // 410.bwaves keeps the longest ready list of the zoo (about ten
    // entries), the core horizon's per-entry test at its widest.
    SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
    cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
    expectHorizonSound(cfg, "410.bwaves", 12000);
}

TEST(FastForwardSoundness, BlockedUncore)
{
    // Four pointer chasers keep the L3 fill queue full for long
    // stretches in which a refused demand or prefetch head, an L2
    // writeback or a stalled L3 fill drain is all that is due; the
    // hierarchy horizon must jump over those ticks, and soundly.
    SystemConfig cfg = baselineConfig(4, PageSize::FourKB);
    cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
    std::uint64_t blocked_jumps = 0;
    expectHorizonSound(cfg, "429.mcf", 4000, &blocked_jumps);
    EXPECT_GT(blocked_jumps, 0u)
        << "no step jumped over a request refused by a full L3 fill queue";
}

TEST(FastForwardSoundness, LoadsWaitingOnAFutureProducer)
{
    // 433.milc parks dependent loads behind producers that complete at
    // a known future cycle; the core horizon jumps straight to it.
    SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
    cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
    expectHorizonSound(cfg, "433.milc", 12000);
}

/**
 * Step @p bench with fast-forward on and, before every step, compare
 * the System's cached horizon with one computed fresh from every core
 * and the hierarchy under the clamp nextEventCycle() applies. The
 * cache is refreshed only through the stale flags, so a flag that a
 * state change failed to set shows up here as a cached horizon later
 * than the fresh one: a jump over an event.
 */
void
expectCachedHorizonNeverLate(SystemConfig cfg, const std::string &bench,
                             std::uint64_t instrs)
{
    cfg.fastForward = true;
    System sys(cfg, makeTraces(bench, cfg));
    std::uint64_t jumps = 0;
    while (sys.core(0).retired() < instrs) {
        const Cycle now = sys.currentCycle();
        const Cycle cached = sys.nextEventCycle();
        Cycle fresh = sys.hierarchy().nextEventAt(now);
        for (int c = 0; c < sys.coreCount(); ++c)
            fresh = std::min(fresh, sys.core(c).nextEventAt(now));
        fresh = fresh <= now + 1
                    ? now + 1
                    : std::min(fresh, now + System::watchdogCycles + 1);
        ASSERT_LE(cached, fresh) << "horizon cached before cycle " << now;
        if (cached > now + 1)
            ++jumps;
        sys.step();
    }
    // BOP_DISABLE_FASTFORWARD ticks every cycle, but the cache is
    // still refreshed and checked before each of them.
    if (sys.fastForwardEnabled())
        EXPECT_GT(jumps, 0u) << "the run must exercise some jumps";
}

TEST(FastForwardSoundness, CachedHorizonNeverLaterThanFresh)
{
    SystemConfig one = baselineConfig(1, PageSize::FourKB);
    one.l2Prefetcher = L2PrefetcherKind::BestOffset;
    expectCachedHorizonNeverLate(one, "429.mcf", 12000);
    // Four pointer chasers saturate the L3 fill queue, so the uncore
    // spends stretches blocked with requests waiting at every level.
    SystemConfig four = baselineConfig(4, PageSize::FourKB);
    four.l2Prefetcher = L2PrefetcherKind::BestOffset;
    expectCachedHorizonNeverLate(four, "429.mcf", 12000);
}

// ---------------------------------------------------------------------------
// MemoryController::nextEventAt against brute-force ticking
// ---------------------------------------------------------------------------

ReqMeta
readMeta(CoreId core)
{
    ReqMeta meta;
    meta.core = core;
    meta.type = ReqType::DemandRead;
    meta.l3FillId = 1; // drainDramCompletions asserts a live id
    return meta;
}

TEST(MemControllerHorizon, IdleControllerHasNoEvents)
{
    MemoryController mc(DramTiming{}, 0, 1);
    EXPECT_EQ(mc.nextEventAt(0), neverCycle);
    EXPECT_EQ(mc.nextEventAt(12345), neverCycle);
    EXPECT_EQ(mc.nextCompletionAt(), neverCycle);
}

TEST(MemControllerHorizon, PendingReadWakesAtBusEdges)
{
    const DramTiming timing;
    MemoryController mc(timing, 0, 1);
    mc.enqueueRead(0x1000, readMeta(0), 5);

    const Cycle h = mc.nextEventAt(5);
    ASSERT_NE(h, neverCycle);
    EXPECT_GT(h, 5u);
    EXPECT_EQ(h % timing.busRatio, 0u) << "scheduling is edge-aligned";

    // Ticks strictly before the horizon must not issue anything.
    for (Cycle t = 6; t < h; ++t) {
        mc.tick(t);
        EXPECT_EQ(mc.stats().reads, 0u) << "tick at " << t;
    }
    mc.tick(h);
    EXPECT_EQ(mc.stats().reads, 1u) << "the horizon tick issues";
    // The finished read is now waiting for its data burst to end.
    EXPECT_TRUE(mc.hasCompletedReads());
    EXPECT_EQ(mc.nextEventAt(h), mc.nextCompletionAt());
    EXPECT_TRUE(mc.popCompleted(mc.nextCompletionAt() - 1).empty());
    EXPECT_EQ(mc.popCompleted(mc.nextCompletionAt()).size(), 1u);
    EXPECT_EQ(mc.nextCompletionAt(), neverCycle);
}

TEST(MemControllerHorizon, HorizonTickingMatchesBruteForce)
{
    // Drive two identical controllers with the same request stream:
    // one ticked every cycle, one only at its advertised horizons.
    // Completions (line, finishCycle) and stats must match exactly.
    const DramTiming timing;
    MemoryController brute(timing, 0, 2);
    MemoryController jump(timing, 0, 2);

    std::vector<std::pair<LineAddr, Cycle>> bruteDone, jumpDone;
    Cycle jumpNext = 1;
    std::uint64_t rng = 0x2545f4914f6cdd1dull;
    auto rand = [&rng]() {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };

    for (Cycle t = 1; t <= 4000; ++t) {
        // Sparse, bursty arrivals across banks/rows and both cores.
        if (rand() % 17 == 0) {
            const LineAddr line = (rand() % 64) << 7;
            const CoreId core = static_cast<CoreId>(rand() % 2);
            if (!brute.readQueueFull(core)) {
                brute.enqueueRead(line, readMeta(core), t);
                jump.enqueueRead(line, readMeta(core), t);
            }
        }
        if (rand() % 97 == 0) {
            const LineAddr line = (rand() % 64) << 7;
            if (!brute.writeQueueFull(0)) {
                brute.enqueueWrite(line, 0, t);
                jump.enqueueWrite(line, 0, t);
            }
        }

        brute.tick(t);
        for (const CompletedRead &r : brute.popCompleted(t))
            bruteDone.push_back({r.line, r.finishCycle});

        // Enqueues change the horizon; conservatively re-ask when due.
        if (t >= jumpNext || jump.nextEventAt(t - 1) <= t) {
            jump.tick(t);
            for (const CompletedRead &r : jump.popCompleted(t))
                jumpDone.push_back({r.line, r.finishCycle});
            jumpNext = jump.nextEventAt(t);
        }
    }

    EXPECT_EQ(bruteDone, jumpDone);
    EXPECT_EQ(brute.stats().reads, jump.stats().reads);
    EXPECT_EQ(brute.stats().writes, jump.stats().writes);
    EXPECT_EQ(brute.stats().rowHits, jump.stats().rowHits);
    EXPECT_EQ(brute.stats().rowMisses, jump.stats().rowMisses);
    EXPECT_GT(brute.stats().reads, 0u) << "the stream must do work";
}

// ---------------------------------------------------------------------------
// Queue min-readyAt gates
// ---------------------------------------------------------------------------

TEST(FillQueueMinReady, TracksDataEntriesOnly)
{
    FillQueue fq("test", 8);
    EXPECT_EQ(fq.minReadyAt(), neverCycle);

    ReqMeta meta;
    const std::uint32_t waiting = fq.allocate(0x10, meta, false);
    EXPECT_EQ(fq.minReadyAt(), neverCycle)
        << "data-less entries have no self-scheduled event";

    const std::uint32_t late = fq.allocateWithData(0x20, meta, false, 90);
    EXPECT_EQ(fq.minReadyAt(), 90u);
    fq.allocateWithData(0x30, meta, false, 40);
    EXPECT_EQ(fq.minReadyAt(), 40u);

    fq.fillData(waiting, 25);
    EXPECT_EQ(fq.minReadyAt(), 25u);

    // Popping the minimum re-derives the next one.
    auto popped = fq.popReady(25);
    ASSERT_TRUE(popped.has_value());
    EXPECT_EQ(popped->line, 0x10u);
    EXPECT_EQ(fq.minReadyAt(), 40u);

    // Releasing the current minimum re-derives too.
    auto ready40 = fq.peekReady(40);
    ASSERT_NE(ready40, nullptr);
    fq.removeById(ready40->id);
    EXPECT_EQ(fq.minReadyAt(), 90u);

    fq.release(late);
    EXPECT_EQ(fq.minReadyAt(), neverCycle);
}

TEST(FillQueueMinReady, ReleasingTheMinimumMidQueueRecomputes)
{
    // Regression: release() must remove the dying entry from the FIFO
    // *before* re-deriving the minimum, or the stale value survives
    // forever (no later pop ever matches it) and pins the hierarchy
    // horizon at now + 1 for the rest of the run.
    FillQueue fq("test", 8);
    ReqMeta meta;
    const std::uint32_t early = fq.allocateWithData(0x10, meta, false, 10);
    fq.allocateWithData(0x20, meta, false, 50);
    ASSERT_EQ(fq.minReadyAt(), 10u);
    fq.release(early);
    EXPECT_EQ(fq.minReadyAt(), 50u);
    ASSERT_TRUE(fq.popReady(50).has_value());
    EXPECT_EQ(fq.minReadyAt(), neverCycle);
}

TEST(PrefetchQueueMinReady, MaintainedAcrossOverflowCancel)
{
    PrefetchQueue pq(2);
    EXPECT_EQ(pq.minReadyAt(), neverCycle);
    pq.insert({0x1, ReqMeta{}, 30});
    pq.insert({0x2, ReqMeta{}, 10});
    EXPECT_EQ(pq.minReadyAt(), 10u);
    // Overflow cancels the oldest (readyAt 30) and keeps the min.
    EXPECT_TRUE(pq.insert({0x3, ReqMeta{}, 20}));
    EXPECT_EQ(pq.minReadyAt(), 10u);
    pq.popFront(10);
    EXPECT_EQ(pq.minReadyAt(), 20u);
    pq.popFront(20);
    EXPECT_EQ(pq.minReadyAt(), neverCycle);
}

} // namespace
} // namespace bop
