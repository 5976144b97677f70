/**
 * @file
 * Integration tests of the memory hierarchy through a full System with
 * scripted single-pattern workloads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/serializer.hh"
#include "harness/experiment.hh"
#include "sim/system.hh"
#include "trace/generators.hh"

namespace bop
{
namespace
{

std::unique_ptr<TraceSource>
seqTrace(std::uint64_t region = 32ull << 20, std::int64_t step = 8,
         double stores = 0.0, int accesses_per_element = 1)
{
    WorkloadSpec w;
    w.name = "seq";
    w.memFraction = 0.5;
    w.branchFraction = 0.0;
    // Address-generation dependences bound the core's spontaneous MLP,
    // which is what leaves prefetchers room to matter (see
    // docs/WORKLOADS.md, "Locality mechanisms").
    w.depFraction = 0.3;
    StreamSpec s;
    s.regionBytes = region;
    s.stepBytes = step;
    s.storeRatio = stores;
    s.accessesPerElement = accesses_per_element;
    w.streams = {s};
    return std::make_unique<SyntheticTrace>(w, 123);
}

SystemConfig
cfg1core(L2PrefetcherKind pf = L2PrefetcherKind::NextLine)
{
    SystemConfig cfg;
    cfg.activeCores = 1;
    cfg.l2Prefetcher = pf;
    return cfg;
}

TEST(Hierarchy, SequentialRunCompletes)
{
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.push_back(seqTrace());
    System sys(cfg1core(), std::move(traces));
    const RunStats stats = sys.run(2000, 20000);
    // Retirement is up to retireWidth per cycle, so the window may
    // overshoot the target by a few instructions.
    EXPECT_GE(stats.instructions, 20000u);
    EXPECT_LT(stats.instructions, 20000u + 12u);
    EXPECT_GT(stats.cycles, 0u);
    EXPECT_GT(stats.dl1Accesses, 8000u);
    EXPECT_GT(stats.dramReads, 0u);
}

TEST(Hierarchy, CacheResidentWorkloadStopsMissing)
{
    // 64KB working set fits the 512KB L2: after warmup, DRAM traffic
    // must be (nearly) zero.
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.push_back(seqTrace(64 << 10));
    System sys(cfg1core(L2PrefetcherKind::None), std::move(traces));
    const RunStats stats = sys.run(50000, 20000);
    EXPECT_LT(stats.dramPer1kInstr(), 1.0);
    EXPECT_LT(stats.l2Mpki(), 1.0);
}

TEST(Hierarchy, NextLineProducesPrefetchedHits)
{
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.push_back(seqTrace());
    System sys(cfg1core(), std::move(traces));
    const RunStats stats = sys.run(5000, 30000);
    EXPECT_GT(stats.l2PrefIssued, 100u);
    EXPECT_GT(stats.l2PrefetchedHits + stats.l2LatePromotions, 50u)
        << "a sequential stream must profit from next-line prefetching";
}

TEST(Hierarchy, PrefetchingReducesCyclesOnStream)
{
    auto run = [](L2PrefetcherKind kind) {
        std::vector<std::unique_ptr<TraceSource>> traces;
        traces.push_back(seqTrace(32ull << 20, 8, 0.0, 3));
        System sys(cfg1core(kind), std::move(traces));
        return sys.run(60000, 120000); // BO needs phases to converge
    };
    const RunStats none = run(L2PrefetcherKind::None);
    const RunStats nl = run(L2PrefetcherKind::NextLine);
    const RunStats bo = run(L2PrefetcherKind::BestOffset);
    EXPECT_GT(nl.ipc(), none.ipc() * 1.02)
        << "next-line must beat no-prefetch on a sequential stream";
    EXPECT_GT(bo.ipc(), nl.ipc() * 1.02)
        << "BO must beat next-line via larger, timely offsets";
}

TEST(Hierarchy, BoLearnsLargeOffsetOnStream)
{
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.push_back(seqTrace());
    SystemConfig cfg = cfg1core(L2PrefetcherKind::BestOffset);
    System sys(cfg, std::move(traces));
    const RunStats stats = sys.run(20000, 50000);
    EXPECT_GT(stats.boLearningPhases, 0u);
    EXPECT_GT(stats.boFinalOffset, 1)
        << "timeliness-aware learning must move beyond next-line";
}

TEST(Hierarchy, WritebacksReachDram)
{
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.push_back(seqTrace(32ull << 20, 8, 1.0)); // all stores
    // Shrink the caches so dirty data cascades to DRAM within the
    // budget of a unit test (the default 8MB L3 absorbs ~130K lines).
    SystemConfig cfg = cfg1core();
    cfg.caches.l2Bytes = 64 * 1024;
    cfg.caches.l3Bytes = 64 * 1024;
    System sys(cfg, std::move(traces));
    const RunStats stats = sys.run(5000, 60000);
    EXPECT_GT(stats.dramWrites, 100u)
        << "streaming stores must generate DRAM writebacks";
}

TEST(Hierarchy, WritebackHitInL3MarksTheLineDirty)
{
    // A store stream over 256KB: every line is filled clean into the
    // L3 (LRU, large enough to keep them all) and the 64KB L2, dirtied
    // in the DL1, and evicted dirty from the L2 while the L3 still
    // holds it. That writeback must leave the L3 copy dirty, or the
    // store is lost.
    const std::uint64_t region = 256 << 10;
    SystemConfig cfg = cfg1core(L2PrefetcherKind::None);
    cfg.l3Policy = L3PolicyKind::Lru;
    cfg.dl1StridePrefetcher = false;
    cfg.caches.l2Bytes = 64 * 1024;
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.push_back(seqTrace(region, 64, 1.0));
    System sys(cfg, std::move(traces));
    sys.run(0, 30000);
    for (int i = 0; i < 20000 && !sys.hierarchy().quiescent(); ++i)
        sys.hierarchy().tick(sys.currentCycle() + static_cast<Cycle>(i));
    ASSERT_TRUE(sys.hierarchy().quiescent());

    // The same stream's store addresses, translated as core 0's are.
    const std::unique_ptr<TraceSource> stream =
        seqTrace(region, 64, 1.0);
    const VirtualMemory vm(cfg.pageSize, 0, cfg.seed);
    MemHierarchy &h = sys.hierarchy();
    std::size_t only_in_l3 = 0;
    std::size_t clean = 0;
    for (int n = 0; n < 20000; ++n) {
        const TraceInstr in = stream->next();
        if (in.kind != InstrKind::Store)
            continue;
        const LineAddr line = lineOf(vm.translate(in.vaddr));
        if (h.dl1(0).probe(line) || h.l2(0).probe(line))
            continue;
        const std::optional<CacheLineState> l3 = h.l3().findLine(line);
        ASSERT_TRUE(l3) << "the L3 keeps every line of the stream";
        ++only_in_l3;
        clean += !l3->dirty;
    }
    EXPECT_GT(only_in_l3, 1000u);
    EXPECT_EQ(clean, 0u) << "stored lines written back to a clean L3 copy";
}

TEST(Hierarchy, StridedPatternBenefitsFromBo)
{
    // Line stride 4: next-line covers nothing, BO should find offset 4
    // (or a multiple) and win. 8 accesses per element keep the miss
    // rate realistic (latency-bound, not bandwidth-bound).
    auto mk = [] { return seqTrace(32ull << 20, 4 * 64, 0.0, 8); };
    auto run = [&](L2PrefetcherKind kind) {
        std::vector<std::unique_ptr<TraceSource>> traces;
        traces.push_back(mk());
        SystemConfig cfg = cfg1core(kind);
        cfg.dl1StridePrefetcher = false; // isolate the L2 prefetcher
        System sys(cfg, std::move(traces));
        return sys.run(60000, 120000);
    };
    const RunStats nl = run(L2PrefetcherKind::NextLine);
    const RunStats bo = run(L2PrefetcherKind::BestOffset);
    EXPECT_GT(bo.ipc(), nl.ipc() * 1.05);
    EXPECT_EQ(bo.boFinalOffset % 4, 0)
        << "learned offset must be a multiple of the stride";
}

TEST(Hierarchy, TlbMissesCountedWith4KbPages)
{
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.push_back(seqTrace());
    System sys(cfg1core(), std::move(traces));
    const RunStats stats = sys.run(2000, 30000);
    EXPECT_GT(stats.dtlb1Misses, 10u);
}

TEST(Hierarchy, SuperpagesEliminateTlbMisses)
{
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.push_back(seqTrace());
    SystemConfig cfg = cfg1core();
    cfg.pageSize = PageSize::FourMB;
    System sys(cfg, std::move(traces));
    const RunStats stats = sys.run(2000, 30000);
    EXPECT_LT(stats.tlb2Misses, 20u);
}

TEST(Hierarchy, MultiCoreThrasherReducesCore0Ipc)
{
    auto run = [](int cores) {
        SystemConfig cfg;
        cfg.activeCores = cores;
        std::vector<std::unique_ptr<TraceSource>> traces;
        traces.push_back(seqTrace());
        for (int c = 1; c < cores; ++c) {
            WorkloadSpec t = makeThrasherSpec();
            traces.push_back(std::make_unique<SyntheticTrace>(t, 55 + c));
        }
        System sys(cfg, std::move(traces));
        return sys.run(5000, 20000);
    };
    const double ipc1 = run(1).ipc();
    const double ipc4 = run(4).ipc();
    EXPECT_LT(ipc4, ipc1)
        << "L3/bandwidth contention must hurt core 0 (paper Fig. 2)";
}

TEST(Hierarchy, QuiescesAfterDrain)
{
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.push_back(seqTrace(64 << 10)); // small, cache resident
    System sys(cfg1core(L2PrefetcherKind::None), std::move(traces));
    sys.run(1000, 5000);
    // Spin the uncore without new work until everything drains.
    for (int i = 0; i < 20000 && !sys.hierarchy().quiescent(); ++i)
        sys.hierarchy().tick(sys.currentCycle() + static_cast<Cycle>(i));
    EXPECT_TRUE(sys.hierarchy().quiescent());
}

TEST(Hierarchy, DeadlockDetectorFires)
{
    // A pathological config: an L2 fill queue of size 3 with reserve 2
    // still progresses; instead test the detector by requesting a
    // trace that never lets core 0 retire: not constructible here, so
    // assert the guard exists by checking a normal run does NOT throw.
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.push_back(seqTrace());
    System sys(cfg1core(), std::move(traces));
    EXPECT_NO_THROW(sys.run(1000, 5000));
}

TEST(Hierarchy, RestoreRefusesPrefetchPointerPastTheCores)
{
    // processPrefetchQueues wraps prefetchRr + i by one core count
    // only, so a pointer at or past it would index past the core sides
    // on the first tick after the restore.
    SystemConfig cfg = cfg1core();
    cfg.activeCores = 2;
    System saver(cfg, makeTraces("462.libquantum", cfg));
    std::vector<std::uint8_t> bytes;
    {
        Serializer s(bytes);
        saver.hierarchy().serialize(s, saver.currentCycle());
    }
    std::vector<std::uint8_t> stats_bytes;
    {
        Serializer s(stats_bytes);
        RunStats stats;
        stats.serialize(s);
    }
    // The pointer is the u32 before the cumulative stats.
    const std::size_t rr_at = bytes.size() - stats_bytes.size() - 4;
    const auto restore_with = [&](std::uint32_t rr) {
        std::vector<std::uint8_t> b = bytes;
        for (std::size_t i = 0; i < 4; ++i)
            b[rr_at + i] = static_cast<std::uint8_t>(rr >> (8 * i));
        System target(cfg, makeTraces("462.libquantum", cfg));
        Serializer s(b.data(), b.size(), 0);
        target.hierarchy().serialize(s, 0);
        s.finish("HIER");
    };
    EXPECT_NO_THROW(restore_with(1));
    EXPECT_THROW(restore_with(2), CheckpointError);
    EXPECT_THROW(restore_with(0xffffffffu), CheckpointError);
}

/**
 * Offset of every saved demand-read metadata of core 0 in @p bytes
 * whose birth cycle is @p birth. ReqMeta saves core, type and needL1
 * first and birth last; matching both ends skips other fields that
 * hold the same cycle (the MSHR's issue cycle).
 */
std::vector<std::size_t>
metaCoreOffsets(const std::vector<std::uint8_t> &bytes, Cycle birth)
{
    std::vector<std::uint8_t> meta;
    {
        Serializer s(meta);
        ReqMeta m;
        m.needL1 = true;
        m.birth = birth;
        m.serialize(s);
    }
    const auto head = static_cast<std::ptrdiff_t>(sizeof(CoreId) + 2);
    const auto birth_at =
        static_cast<std::ptrdiff_t>(meta.size() - sizeof(Cycle));
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i + meta.size() <= bytes.size(); ++i) {
        const auto at = bytes.begin() + static_cast<std::ptrdiff_t>(i);
        if (std::equal(meta.begin(), meta.begin() + head, at) &&
            std::equal(meta.begin() + birth_at, meta.end(), at + birth_at))
            out.push_back(i);
    }
    return out;
}

/**
 * A 2-core hierarchy (of a 4-core chip) with one demand miss of core 0
 * issued at a distinctive cycle and no prefetcher, stepped stage by
 * stage so the tests can save it while the request sits in each queue
 * and restore the bytes with the request's core rewritten.
 */
class RequestCoreRestore : public ::testing::Test
{
  protected:
    static constexpr Cycle birth = 0x5eed0000abcdull;

    RequestCoreRestore()
    {
        cfg = cfg1core(L2PrefetcherKind::None);
        cfg.dl1StridePrefetcher = false;
        cfg.activeCores = 2;
        cfg.numCores = 4;
        sys = std::make_unique<System>(cfg,
                                       makeTraces("462.libquantum", cfg));
        now = birth;
        const LoadOutcome out =
            hier().coreLoad(0, 0x7a5000, 0x400000, 0, now);
        EXPECT_EQ(out.kind, LoadOutcome::Kind::Pending);
    }

    MemHierarchy &hier() { return sys->hierarchy(); }

    /** Tick until @p pred holds, for at most 1000 cycles. */
    template <typename P>
    void
    tickUntil(P pred)
    {
        for (int i = 0; i < 1000 && !pred(); ++i)
            hier().tick(++now);
        ASSERT_TRUE(pred()) << "the request never reached the stage";
    }

    std::size_t
    dramReads()
    {
        std::size_t n = 0;
        for (int ch = 0; ch < hier().channelCount(); ++ch)
            n += hier().controller(ch).readQueueSize(0);
        return n;
    }

    std::vector<std::uint8_t>
    save(bool dram)
    {
        std::vector<std::uint8_t> bytes;
        Serializer s(bytes);
        if (dram)
            hier().serializeDram(s);
        else
            hier().serialize(s, now);
        return bytes;
    }

    /** Restore @p bytes with the core field at @p at set to @p core. */
    void
    restoreWith(std::vector<std::uint8_t> bytes, bool dram, std::size_t at,
                CoreId core)
    {
        for (std::size_t i = 0; i < sizeof(CoreId); ++i)
            bytes[at + i] = static_cast<std::uint8_t>(
                static_cast<std::uint32_t>(core) >> (8 * i));
        System target(cfg, makeTraces("462.libquantum", cfg));
        Serializer s(bytes.data(), bytes.size(), 0);
        if (dram)
            target.hierarchy().serializeDram(s);
        else
            target.hierarchy().serialize(s, now);
        s.finish("HIER");
    }

    SystemConfig cfg;
    std::unique_ptr<System> sys;
    Cycle now = 0;
};

TEST_F(RequestCoreRestore, RefusesAnotherCoresRequestInASideQueue)
{
    // processDl1Deliveries wakes cores[meta.core]: a side's queue must
    // hold its own core's requests only.
    const std::vector<std::uint8_t> bytes = save(false);
    const std::vector<std::size_t> at = metaCoreOffsets(bytes, birth);
    ASSERT_EQ(at.size(), 1u) << "the miss waits in core 0's DL1 queue";
    EXPECT_NO_THROW(restoreWith(bytes, false, at[0], 0));
    EXPECT_THROW(restoreWith(bytes, false, at[0], 1), CheckpointError);
    EXPECT_THROW(restoreWith(bytes, false, at[0], 2), CheckpointError);
}

TEST_F(RequestCoreRestore, RefusesL3RequestPastTheActiveCores)
{
    // processToL3 and drainOneL3Fill index the core sides by
    // meta.core, so the shared L3 queues may name active cores only.
    tickUntil([&] { return metaCoreOffsets(save(false), birth).size() == 2; });
    const std::vector<std::uint8_t> queued = save(false);
    const std::vector<std::size_t> at = metaCoreOffsets(queued, birth);
    // The first copy is core 0's waiting L2 fill entry, the second the
    // request in the L3 demand queue.
    EXPECT_THROW(restoreWith(queued, false, at[0], 1), CheckpointError);
    EXPECT_NO_THROW(restoreWith(queued, false, at[1], 1));
    EXPECT_THROW(restoreWith(queued, false, at[1], 2), CheckpointError);
    EXPECT_THROW(restoreWith(queued, false, at[1], -1), CheckpointError);

    // After the L3 miss, the live copy is the L3 fill entry (the first
    // is core 0's released L2 fill slot) and the DRAM read.
    tickUntil([&] { return dramReads() == 1; });
    const std::vector<std::uint8_t> missed = save(false);
    const std::vector<std::size_t> fill = metaCoreOffsets(missed, birth);
    ASSERT_EQ(fill.size(), 2u);
    EXPECT_NO_THROW(restoreWith(missed, false, fill[1], 1));
    EXPECT_THROW(restoreWith(missed, false, fill[1], 2), CheckpointError);
}

TEST_F(RequestCoreRestore, RefusesDramRequestOfAnotherOrInactiveCore)
{
    tickUntil([&] { return dramReads() == 1; });
    const std::vector<std::uint8_t> queued = save(true);
    const std::vector<std::size_t> at = metaCoreOffsets(queued, birth);
    ASSERT_EQ(at.size(), 1u);
    EXPECT_NO_THROW(restoreWith(queued, true, at[0], 0));
    // A read sits in its own core's queue.
    EXPECT_THROW(restoreWith(queued, true, at[0], 1), CheckpointError);
    EXPECT_THROW(restoreWith(queued, true, at[0], 3), CheckpointError);

    // A completed read names a core the hierarchy hands it back to:
    // one of the chip's 4 is not enough, it must be active.
    tickUntil([&] { return dramReads() == 0; });
    const std::vector<std::uint8_t> done = save(true);
    const std::vector<std::size_t> read = metaCoreOffsets(done, birth);
    ASSERT_EQ(read.size(), 1u);
    EXPECT_NO_THROW(restoreWith(done, true, read[0], 1));
    EXPECT_THROW(restoreWith(done, true, read[0], 3), CheckpointError);
    EXPECT_THROW(restoreWith(done, true, read[0], 4), CheckpointError);
}

} // namespace
} // namespace bop
