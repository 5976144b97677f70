/**
 * @file
 * Checkpoint/restore differential battery.
 *
 * The checkpoint subsystem's contract is bit-identity: save at cycle
 * N, restore into a freshly constructed System, run to the end — the
 * RunStats, final cycle count and RNG draw order must equal an
 * uninterrupted run's exactly. The tests here are differential proofs
 * of that contract across the pinned golden topology grid (the 18
 * bench x cores x page combinations of tests/test_topology.cc), the
 * prefetcher zoo, fast-forward on/off, and save points taken
 * mid-burst (non-quiescent uncore), plus the two latent serialization
 * hazards (BufferedRng refill-buffer position, cached fast-forward
 * horizons) pinned by focused regressions.
 *
 * The container-level rejection paths (truncation, corruption,
 * version skew) live in tests/test_checkpoint_format.cc.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/serializer.hh"
#include "harness/checkpoint.hh"
#include "harness/experiment.hh"
#include "sim/system.hh"

namespace bop
{
namespace
{

/** Small budgets: the whole battery must stay CI-sized. */
constexpr std::uint64_t kWarm = 2000;
constexpr std::uint64_t kMeasure = 6000;

struct RunOutcome
{
    RunStats stats;
    Cycle finalCycle = 0;
};

/** Uninterrupted reference run. */
RunOutcome
coldRun(const std::string &bench, const SystemConfig &cfg,
        std::uint64_t warmup = kWarm, std::uint64_t measure = kMeasure)
{
    System sys(cfg, makeTraces(bench, cfg));
    RunOutcome out;
    out.stats = sys.run(warmup, measure);
    out.finalCycle = sys.currentCycle();
    return out;
}

/**
 * Warm one System, checkpoint it, restore into a second freshly
 * constructed System (possibly under a different host-side speed
 * configuration @p restore_cfg), and measure there.
 */
RunOutcome
checkpointedRun(const std::string &bench, const SystemConfig &save_cfg,
                const SystemConfig &restore_cfg,
                std::uint64_t warmup = kWarm,
                std::uint64_t measure = kMeasure)
{
    System saver(save_cfg, makeTraces(bench, save_cfg));
    saver.warmup(warmup);
    const std::vector<std::uint8_t> bytes = saver.saveCheckpointBytes();

    System restored(restore_cfg, makeTraces(bench, restore_cfg));
    restored.restoreCheckpointBytes(bytes);
    RunOutcome out;
    out.stats = restored.measure(measure);
    out.finalCycle = restored.currentCycle();
    return out;
}

void
expectOutcomesEqual(const RunOutcome &a, const RunOutcome &b,
                    const std::string &label)
{
    EXPECT_TRUE(a.stats == b.stats) << label;
    EXPECT_EQ(a.finalCycle, b.finalCycle) << label;
    // Spot-check fields a broken operator== could vacuously pass on.
    EXPECT_EQ(a.stats.cycles, b.stats.cycles) << label;
    EXPECT_EQ(a.stats.instructions, b.stats.instructions) << label;
    EXPECT_EQ(a.stats.dramReads, b.stats.dramReads) << label;
    EXPECT_EQ(a.stats.l2PrefIssued, b.stats.l2PrefIssued) << label;
}

// ---------------------------------------------------------------------------
// Golden topology grid x fast-forward on/off
// ---------------------------------------------------------------------------

TEST(CheckpointEquivalence, GoldenTopologiesBitIdentical)
{
    // The bench x cores x page grid pinned in tests/test_topology.cc,
    // each under fast-forward on AND off: save at the warmup/measure
    // boundary, restore into a fresh System, measure — bit-identical
    // to the uninterrupted run in stats and final cycle.
    const char *benches[] = {"462.libquantum", "429.mcf", "470.lbm"};
    for (const char *bench : benches) {
        for (const int cores : {1, 2, 4}) {
            for (const PageSize page :
                 {PageSize::FourKB, PageSize::FourMB}) {
                for (const bool ff : {true, false}) {
                    SystemConfig cfg = baselineConfig(cores, page);
                    cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
                    cfg.fastForward = ff;
                    const std::string label =
                        std::string(bench) + " " +
                        gridLabel(cores, page) +
                        (ff ? " ff" : " no-ff");
                    expectOutcomesEqual(
                        coldRun(bench, cfg),
                        checkpointedRun(bench, cfg, cfg), label);
                }
            }
        }
    }
}

TEST(CheckpointEquivalence, RestoreAcrossFastForwardToggle)
{
    // fastForward is a host-side speed knob excluded from the
    // topology fingerprint: a checkpoint saved under one
    // fast-forward setting restores under the other, bit-identically.
    SystemConfig on = baselineConfig(2, PageSize::FourKB);
    on.l2Prefetcher = L2PrefetcherKind::BestOffset;
    on.fastForward = true;
    SystemConfig off = on;
    off.fastForward = false;

    const RunOutcome cold = coldRun("429.mcf", on);
    expectOutcomesEqual(cold, checkpointedRun("429.mcf", on, off),
                        "saved ff-on, restored ff-off");
    expectOutcomesEqual(cold, checkpointedRun("429.mcf", off, on),
                        "saved ff-off, restored ff-on");
}

// ---------------------------------------------------------------------------
// Prefetcher zoo: every prefetcher's tables must round-trip
// ---------------------------------------------------------------------------

TEST(CheckpointEquivalence, PrefetcherZooBitIdentical)
{
    for (const auto kind :
         {L2PrefetcherKind::None, L2PrefetcherKind::NextLine,
          L2PrefetcherKind::FixedOffset, L2PrefetcherKind::BestOffset,
          L2PrefetcherKind::BestOffsetDpc2, L2PrefetcherKind::Sandbox,
          L2PrefetcherKind::Stream, L2PrefetcherKind::StreamBuffer,
          L2PrefetcherKind::Fdp, L2PrefetcherKind::Acdc}) {
        SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
        cfg.l2Prefetcher = kind;
        const std::string label =
            "prefetcher kind " + std::to_string(static_cast<int>(kind));
        expectOutcomesEqual(coldRun("429.mcf", cfg),
                            checkpointedRun("429.mcf", cfg, cfg), label);
    }
}

TEST(CheckpointEquivalence, L3PolicySweepBitIdentical)
{
    // DRRIP's PSEL/BRRIP rng and 5P's proportional counters are
    // policy-global state outside the per-set arrays.
    for (const auto policy :
         {L3PolicyKind::P5, L3PolicyKind::Lru, L3PolicyKind::Drrip}) {
        SystemConfig cfg = baselineConfig(2, PageSize::FourKB);
        cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
        cfg.l3Policy = policy;
        const std::string label =
            "l3 policy " + std::to_string(static_cast<int>(policy));
        expectOutcomesEqual(coldRun("470.lbm", cfg),
                            checkpointedRun("470.lbm", cfg, cfg), label);
    }
}

// ---------------------------------------------------------------------------
// Mid-burst save points and round-trip byte identity
// ---------------------------------------------------------------------------

TEST(CheckpointEquivalence, MidBurstSaveIsNotQuiescent)
{
    // A save at a runUntilRetired() boundary lands mid-burst: the
    // pointer-chasing benchmark keeps MSHRs, fill queues and the DRAM
    // bus window occupied essentially always. Assert the save point
    // really is non-quiescent (so the battery genuinely covers
    // in-flight state), then prove restore equivalence from it — and
    // that the saver itself continues identically (saving perturbs
    // nothing).
    SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
    cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;

    System saver(cfg, makeTraces("429.mcf", cfg));
    saver.warmup(2500);
    ASSERT_FALSE(saver.hierarchy().quiescent())
        << "save point must land mid-burst for this test to bite";
    const std::vector<std::uint8_t> bytes = saver.saveCheckpointBytes();

    System restored(cfg, makeTraces("429.mcf", cfg));
    restored.restoreCheckpointBytes(bytes);

    const RunStats continued = saver.measure(kMeasure);
    const RunStats after_restore = restored.measure(kMeasure);
    EXPECT_TRUE(continued == after_restore);
    EXPECT_EQ(saver.currentCycle(), restored.currentCycle());

    const RunOutcome cold = coldRun("429.mcf", cfg, 2500, kMeasure);
    EXPECT_TRUE(cold.stats == after_restore);
    EXPECT_EQ(cold.finalCycle, restored.currentCycle());
}

TEST(CheckpointEquivalence, SaveRestoreSaveByteIdentical)
{
    // Round-trip determinism: the bytes saved by a restored System
    // must equal the bytes it was restored from — for every zoo
    // prefetcher (GHB's prediction set must serialise in a canonical
    // order for this to hold).
    for (const auto kind :
         {L2PrefetcherKind::BestOffset, L2PrefetcherKind::Acdc,
          L2PrefetcherKind::StreamBuffer, L2PrefetcherKind::Fdp,
          L2PrefetcherKind::Sandbox, L2PrefetcherKind::BestOffsetDpc2}) {
        SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
        cfg.l2Prefetcher = kind;

        System saver(cfg, makeTraces("429.mcf", cfg));
        saver.warmup(kWarm);
        const std::vector<std::uint8_t> first =
            saver.saveCheckpointBytes();

        System restored(cfg, makeTraces("429.mcf", cfg));
        restored.restoreCheckpointBytes(first);
        const std::vector<std::uint8_t> second =
            restored.saveCheckpointBytes();
        EXPECT_EQ(first, second)
            << "prefetcher kind " << static_cast<int>(kind);
    }
}

TEST(CheckpointEquivalence, SaturatedFourCoreRunOnByteIdentical)
{
    // 4-core 429.mcf with BO on 4 KB pages keeps the shared L3 fill
    // queue full on most cycles, so prefetch and demand heads retry
    // against it and the L3 stage's blocked-miss memos are live at the
    // save point. They are not serialized: a restored System must run
    // on to the same stats as the uninterrupted one and then save the
    // same bytes.
    SystemConfig cfg = baselineConfig(4, PageSize::FourKB);
    cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
    constexpr std::uint64_t warm = 20000;
    constexpr std::uint64_t run_on = 20000;

    System saver(cfg, makeTraces("429.mcf", cfg));
    saver.warmup(warm);
    ASSERT_FALSE(saver.hierarchy().quiescent());
    const std::vector<std::uint8_t> bytes = saver.saveCheckpointBytes();

    System restored(cfg, makeTraces("429.mcf", cfg));
    restored.restoreCheckpointBytes(bytes);
    const RunStats continued = saver.measure(run_on);
    const RunStats after_restore = restored.measure(run_on);
    EXPECT_TRUE(continued == after_restore);
    EXPECT_EQ(continued.dramReads, after_restore.dramReads);
    EXPECT_EQ(saver.currentCycle(), restored.currentCycle());
    EXPECT_EQ(saver.saveCheckpointBytes(), restored.saveCheckpointBytes())
        << "run-on state must not depend on the restore";

    const RunOutcome cold = coldRun("429.mcf", cfg, warm, run_on);
    EXPECT_TRUE(cold.stats == after_restore);
    EXPECT_EQ(cold.finalCycle, restored.currentCycle());
}

TEST(CheckpointEquivalence, FileRoundTrip)
{
    // The on-disk path (bopsim --save-checkpoint/--restore-checkpoint)
    // must behave exactly like the byte-buffer path.
    SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
    cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
    const std::string path =
        testing::TempDir() + "bop_test_checkpoint.ckpt";

    System saver(cfg, makeTraces("470.lbm", cfg));
    saver.warmup(kWarm);
    saver.saveCheckpoint(path);

    System restored(cfg, makeTraces("470.lbm", cfg));
    restored.restoreCheckpoint(path);
    RunOutcome out;
    out.stats = restored.measure(kMeasure);
    out.finalCycle = restored.currentCycle();
    expectOutcomesEqual(coldRun("470.lbm", cfg), out, "file round-trip");
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Topology refusal
// ---------------------------------------------------------------------------

TEST(CheckpointRefusal, IncompatibleTopologyRejected)
{
    SystemConfig one = baselineConfig(1, PageSize::FourKB);
    System saver(one, makeTraces("429.mcf", one));
    saver.warmup(500);
    const std::vector<std::uint8_t> bytes = saver.saveCheckpointBytes();

    // Different core count, different page size, different benchmark,
    // different seed: each changes the topology fingerprint and must
    // be refused at byte offset 12 (the fingerprint field) with the
    // target System untouched.
    SystemConfig two = baselineConfig(2, PageSize::FourKB);
    SystemConfig big_page = baselineConfig(1, PageSize::FourMB);
    SystemConfig reseeded = one;
    reseeded.seed = 7;

    struct Case
    {
        const char *label;
        const char *bench;
        SystemConfig cfg;
    };
    const Case cases[] = {
        {"core count", "429.mcf", two},
        {"page size", "429.mcf", big_page},
        {"benchmark", "470.lbm", one},
        {"seed", "429.mcf", reseeded},
    };
    for (const Case &c : cases) {
        System target(c.cfg, makeTraces(c.bench, c.cfg));
        try {
            target.restoreCheckpointBytes(bytes);
            FAIL() << c.label << ": incompatible restore succeeded";
        } catch (const CheckpointError &e) {
            EXPECT_EQ(e.byteOffset(), 12u) << c.label;
            EXPECT_NE(std::string(e.what()).find("fingerprint"),
                      std::string::npos)
                << c.label << ": " << e.what();
            EXPECT_NE(std::string(e.what()).find("byte offset 12"),
                      std::string::npos)
                << c.label << ": " << e.what();
        }
        // The refused System is untouched and still runs.
        EXPECT_EQ(target.currentCycle(), 0u) << c.label;
        const RunStats s = target.run(500, 1000);
        EXPECT_GE(s.instructions, 1000u) << c.label;
    }
}

// ---------------------------------------------------------------------------
// Latent-hazard regressions
// ---------------------------------------------------------------------------

TEST(CheckpointHazards, BufferedRngSavedMidRefillBuffer)
{
    // BufferedRng batches 16 draws per refill; a checkpoint landing
    // mid-buffer must capture the undrawn values and the consumption
    // position, or restore would skip part of the stream (the draw
    // order every golden stat pins).
    BufferedRng original(1234);
    for (int i = 0; i < 5; ++i)
        original.next(); // park pos mid-buffer

    std::vector<std::uint8_t> bytes;
    {
        Serializer s(bytes);
        original.serialize(s);
    }

    BufferedRng restored(999); // deliberately different seed
    {
        Serializer s(bytes.data(), bytes.size(), 0);
        restored.serialize(s);
        s.finish("BufferedRng");
    }
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(restored.next(), original.next()) << "draw " << i;

    // An out-of-range position must be rejected, not replayed.
    ASSERT_GE(bytes.size(), 4u);
    std::vector<std::uint8_t> corrupt = bytes;
    corrupt[corrupt.size() - 4] = 0xff; // pos is the last u32 field
    BufferedRng victim(1);
    Serializer s(corrupt.data(), corrupt.size(), 0);
    EXPECT_THROW(victim.serialize(s), CheckpointError);
}

TEST(CheckpointHazards, CachedHorizonsRebuiltAfterRestore)
{
    // Run the saver under fast-forward until its horizon caches are
    // warm, checkpoint, restore, then single-step both systems in
    // lockstep: every jump target must match. A restored System whose
    // horizon caches were not invalidated/rebuilt would jump to stale
    // cycles here.
    SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
    cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
    ASSERT_TRUE(cfg.fastForward);

    System saver(cfg, makeTraces("429.mcf", cfg));
    saver.warmup(1500); // horizon caches now hold live entries
    const std::vector<std::uint8_t> bytes = saver.saveCheckpointBytes();

    System restored(cfg, makeTraces("429.mcf", cfg));
    restored.restoreCheckpointBytes(bytes);
    ASSERT_EQ(restored.currentCycle(), saver.currentCycle());

    for (int i = 0; i < 2000; ++i) {
        saver.step();
        restored.step();
        ASSERT_EQ(restored.currentCycle(), saver.currentCycle())
            << "fast-forward jump diverged at step " << i;
        ASSERT_EQ(restored.core(0).retired(), saver.core(0).retired())
            << "retire stream diverged at step " << i;
    }
}

// ---------------------------------------------------------------------------
// Fingerprint sanity
// ---------------------------------------------------------------------------

TEST(CheckpointFingerprint, SpeedKnobsExcludedTopologyIncluded)
{
    SystemConfig cfg = baselineConfig(2, PageSize::FourKB);
    System base(cfg, makeTraces("429.mcf", cfg));
    const std::uint64_t fp = checkpointFingerprint(base);

    SystemConfig ff_cfg = cfg;
    ff_cfg.fastForward = false;
    System ff_sys(ff_cfg, makeTraces("429.mcf", ff_cfg));
    EXPECT_EQ(checkpointFingerprint(ff_sys), fp)
        << "fastForward is a host-side knob";

    SystemConfig other = cfg;
    other.l2Prefetcher = L2PrefetcherKind::Acdc;
    System other_sys(other, makeTraces("429.mcf", other));
    EXPECT_NE(checkpointFingerprint(other_sys), fp)
        << "the prefetcher is simulated state";

    System other_bench(cfg, makeTraces("470.lbm", cfg));
    EXPECT_NE(checkpointFingerprint(other_bench), fp)
        << "the trace set is simulated state";
}

} // namespace
} // namespace bop
