/**
 * @file
 * Tests for the OOO core model, using a scripted trace and a mock
 * memory interface with controllable latencies.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "common/serializer.hh"
#include "sim/core_model.hh"

namespace bop
{
namespace
{

/** Scripted trace: replays a fixed vector, then pads with IntOps. */
class ScriptTrace : public TraceSource
{
  public:
    explicit ScriptTrace(std::vector<TraceInstr> script)
        : script(std::move(script))
    {
    }

    TraceInstr
    next() override
    {
        if (pos < script.size())
            return script[pos++];
        TraceInstr nop;
        nop.kind = InstrKind::IntOp;
        nop.pc = 0x900000;
        return nop;
    }

    std::string name() const override { return "script"; }

  private:
    std::vector<TraceInstr> script;
    std::size_t pos = 0;
};

/** Mock memory: every load takes a fixed latency, delivered manually. */
class MockMem : public CoreMemInterface
{
  public:
    LoadOutcome
    coreLoad(CoreId, Addr vaddr, Addr, std::uint32_t rob_tag,
             Cycle now) override
    {
        ++loads;
        if (retries_left > 0) {
            --retries_left;
            return {LoadOutcome::Kind::Retry, 0};
        }
        if (hit_latency > 0)
            return {LoadOutcome::Kind::Hit, now + hit_latency};
        pending.push_back({rob_tag, now, vaddr});
        return {LoadOutcome::Kind::Pending, 0};
    }

    StoreOutcome
    coreStore(CoreId, Addr, Addr, Cycle) override
    {
        ++stores;
        return {true, store_hits};
    }

    void
    retireMemOp(CoreId, Addr, Addr) override
    {
        ++retired_mem;
    }

    struct Pending
    {
        std::uint32_t tag;
        Cycle issued;
        Addr vaddr;
    };

    unsigned hit_latency = 3;  ///< 0 = Pending mode
    bool store_hits = true;
    int retries_left = 0;
    int loads = 0;
    int stores = 0;
    int retired_mem = 0;
    std::deque<Pending> pending;
};

TraceInstr
load(Addr vaddr, bool dep = false)
{
    TraceInstr i;
    i.kind = InstrKind::Load;
    i.pc = 0x1000;
    i.vaddr = vaddr;
    i.dependsOnPrevLoad = dep;
    return i;
}

TraceInstr
op()
{
    TraceInstr i;
    i.kind = InstrKind::IntOp;
    i.pc = 0x2000;
    return i;
}

TEST(CoreModel, RetiresInstructionsInOrder)
{
    CoreParams params;
    ScriptTrace trace({op(), op(), load(0x100), op()});
    MockMem mem;
    CoreModel core(0, params, trace, mem);

    Cycle now = 0;
    while (core.retired() < 100 && now < 1000)
        core.tick(++now);
    EXPECT_GE(core.retired(), 100u);
    EXPECT_EQ(mem.retired_mem, 1) << "one memory op in the script";
}

TEST(CoreModel, IpcBoundedByDispatchWidth)
{
    CoreParams params;
    params.dispatchWidth = 4;
    ScriptTrace trace({});
    MockMem mem;
    CoreModel core(0, params, trace, mem);
    for (Cycle now = 1; now <= 1000; ++now)
        core.tick(now);
    EXPECT_LE(core.retired(), 4000u);
    EXPECT_GT(core.retired(), 3000u) << "pure-ALU IPC should be near 4";
}

TEST(CoreModel, PendingLoadBlocksRetirementUntilCompleted)
{
    CoreParams params;
    ScriptTrace trace({load(0x100)});
    MockMem mem;
    mem.hit_latency = 0; // pending mode
    CoreModel core(0, params, trace, mem);

    Cycle now = 0;
    for (; now < 50; ++now)
        core.tick(now + 1);
    ASSERT_EQ(mem.pending.size(), 1u);
    // ROB head (after any older ops) is stuck on the load; retirement
    // of younger instructions cannot pass it.
    const auto retired_before = core.retired();
    for (int i = 0; i < 20; ++i)
        core.tick(++now);
    EXPECT_EQ(core.retired(), retired_before);

    core.loadCompleted(mem.pending[0].tag, now);
    for (int i = 0; i < 20; ++i)
        core.tick(++now);
    EXPECT_GT(core.retired(), retired_before);
}

TEST(CoreModel, RobCapacityBoundsOutstandingWork)
{
    CoreParams params;
    params.robSize = 32;
    ScriptTrace trace({load(0x100)}); // then endless ops
    MockMem mem;
    mem.hit_latency = 0;
    CoreModel core(0, params, trace, mem);
    for (Cycle now = 1; now < 200; ++now)
        core.tick(now);
    // The un-completed load blocks the head: at most robSize-? ops sit
    // in the ROB; none retired beyond those dispatched before the load.
    EXPECT_LE(core.robOccupancy(), 32u);
    EXPECT_EQ(core.retired(), 0u) << "load was first and never completed";
}

TEST(CoreModel, DependentLoadsSerialize)
{
    // Two independent loads issue back-to-back; two dependent loads
    // issue serially. Compare the times of the DL1 accesses.
    CoreParams params;
    MockMem mem_ind;
    mem_ind.hit_latency = 0;
    ScriptTrace t_ind({load(0x100), load(0x200)});
    CoreModel core_ind(0, params, t_ind, mem_ind);
    Cycle now = 0;
    while (mem_ind.pending.size() < 2 && now < 100)
        core_ind.tick(++now);
    ASSERT_EQ(mem_ind.pending.size(), 2u);
    EXPECT_EQ(mem_ind.pending[0].issued, mem_ind.pending[1].issued)
        << "independent loads issue in the same cycle";

    MockMem mem_dep;
    mem_dep.hit_latency = 0;
    ScriptTrace t_dep({load(0x100), load(0x200, true)});
    CoreModel core_dep(0, params, t_dep, mem_dep);
    now = 0;
    while (mem_dep.pending.size() < 1 && now < 100)
        core_dep.tick(++now);
    // Second load must not issue before the first completes.
    for (int i = 0; i < 30; ++i)
        core_dep.tick(++now);
    ASSERT_EQ(mem_dep.pending.size(), 1u);
    const Cycle completed_at = now;
    core_dep.loadCompleted(mem_dep.pending[0].tag, completed_at);
    while (mem_dep.pending.size() < 2 && now < 500)
        core_dep.tick(++now);
    ASSERT_EQ(mem_dep.pending.size(), 2u);
    EXPECT_GT(mem_dep.pending[1].issued, mem_dep.pending[0].issued + 25);
}

TEST(CoreModel, RetryLoadsEventuallyIssue)
{
    CoreParams params;
    ScriptTrace trace({load(0x100)});
    MockMem mem;
    mem.retries_left = 5;
    CoreModel core(0, params, trace, mem);
    Cycle now = 0;
    while (core.retired() < 1 && now < 200)
        core.tick(++now);
    EXPECT_GE(core.retired(), 1u);
    EXPECT_GE(mem.loads, 6) << "5 retries + 1 success";
}

TEST(CoreModel, MispredictedBranchStallsDispatch)
{
    // An endless stream of unpredictable branches caps IPC near
    // 1/branchPenalty once the predictor stops guessing right.
    CoreParams params;
    std::vector<TraceInstr> script;
    Rng rng(5);
    for (int i = 0; i < 4000; ++i) {
        TraceInstr b;
        b.kind = InstrKind::Branch;
        b.pc = 0x3000;
        b.taken = rng.chance(0.5);
        script.push_back(b);
    }
    ScriptTrace trace(std::move(script));
    MockMem mem;
    CoreModel core(0, params, trace, mem);
    for (Cycle now = 1; now <= 8000; ++now)
        core.tick(now);
    ASSERT_GT(core.branchCount(), 500u);
    const double mr = static_cast<double>(core.mispredictCount()) /
                      static_cast<double>(core.branchCount());
    EXPECT_GT(mr, 0.3);
    // With ~50% mispredicts and a 12-cycle penalty, far fewer than the
    // dispatch-width-bound instructions retire.
    EXPECT_LT(core.retired(), 4000u);
}

TEST(CoreModel, StoresDoNotBlockRetirement)
{
    CoreParams params;
    std::vector<TraceInstr> script;
    for (int i = 0; i < 64; ++i) {
        TraceInstr s;
        s.kind = InstrKind::Store;
        s.pc = 0x4000;
        s.vaddr = 0x100000 + static_cast<Addr>(i) * 64;
        script.push_back(s);
    }
    ScriptTrace trace(std::move(script));
    MockMem mem;
    CoreModel core(0, params, trace, mem);
    Cycle now = 0;
    while (core.retired() < 64 && now < 300)
        core.tick(++now);
    EXPECT_GE(core.retired(), 64u);
    EXPECT_EQ(mem.stores, 64);
}

TEST(CoreModel, StoreQueueBackpressure)
{
    CoreParams params;
    params.storeQueue = 4;
    std::vector<TraceInstr> script;
    for (int i = 0; i < 32; ++i) {
        TraceInstr s;
        s.kind = InstrKind::Store;
        s.pc = 0x4000;
        s.vaddr = 0x100000 + static_cast<Addr>(i) * 64;
        script.push_back(s);
    }
    ScriptTrace trace(std::move(script));
    MockMem mem;
    mem.store_hits = false; // every store occupies the store queue
    CoreModel core(0, params, trace, mem);
    for (Cycle now = 1; now <= 100; ++now)
        core.tick(now);
    EXPECT_LE(mem.stores, 4) << "store queue must throttle at 4";
    core.storeCompleted(mem.stores);
    for (Cycle now = 101; now <= 120; ++now)
        core.tick(now);
    EXPECT_GT(mem.stores, 4);
}

std::vector<std::uint8_t>
saved(CoreModel &core)
{
    std::vector<std::uint8_t> bytes;
    Serializer s(bytes);
    core.serialize(s);
    return bytes;
}

TEST(CoreModel, RefusedDispatchLeavesNoTrace)
{
    // A held load facing a full load queue is retried every tick until
    // a completion drains the queue. The refusal must touch neither
    // the ROB tail slot nor the generation counter: fast-forward skips
    // these ticks, and a checkpoint must not depend on that.
    CoreParams params;
    params.loadQueue = 2;
    ScriptTrace trace({load(0x1000), load(0x2000), load(0x3000)});
    MockMem mem;
    mem.hit_latency = 0; // Pending mode: the queue stays full
    CoreModel core(0, params, trace, mem);
    core.tick(1);
    ASSERT_EQ(mem.pending.size(), 2u);
    const std::vector<std::uint8_t> after_first = saved(core);
    for (Cycle now = 2; now <= 10; ++now) {
        core.tick(now);
        EXPECT_TRUE(saved(core) == after_first) << "tick " << now;
    }
    EXPECT_EQ(core.robOccupancy(), 2u);
}

/** Store @p v little-endian at @p at. */
void
putU32(std::vector<std::uint8_t> &bytes, std::size_t at, std::uint32_t v)
{
    for (std::size_t i = 0; i < 4; ++i)
        bytes[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t
getU32(const std::vector<std::uint8_t> &bytes, std::size_t at)
{
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(bytes[at + i]) << (8 * i);
    return v;
}

/** Load @p bytes into a fresh core; throws what the loader throws. */
void
restoreFresh(const std::vector<std::uint8_t> &bytes)
{
    ScriptTrace trace({});
    MockMem mem;
    CoreModel core(0, CoreParams{}, trace, mem);
    Serializer s(bytes.data(), bytes.size(), 0);
    core.serialize(s);
    s.finish("core");
}

/**
 * A core with a dependent load woken into the ready list: its producer
 * (ROB slot 0) completed, the dependent (slot 1, @p dep_vaddr) waits
 * to issue at the next tick. Returns the saved bytes.
 */
std::vector<std::uint8_t>
wokenDependentBytes(Addr dep_vaddr)
{
    ScriptTrace trace({load(0x1000), load(dep_vaddr, true)});
    MockMem mem;
    mem.hit_latency = 0;
    CoreModel core(0, CoreParams{}, trace, mem);
    core.tick(1);
    EXPECT_EQ(mem.pending.size(), 1u) << "only the producer issued";
    core.loadCompleted(mem.pending.front().tag, 5);
    return saved(core);
}

TEST(CoreModel, RestoreRefusesLastLoadIndexPastTheRob)
{
    // dispatchOne reads rob[lastLoadIdx] for the next dependent load.
    std::vector<std::uint8_t> bytes = wokenDependentBytes(0x2000);
    // lastLoadIdx is the u32 before lastLoadGen and the four u64
    // counters that end the payload.
    const std::size_t at = bytes.size() - 4 - 5 * 8;
    ASSERT_EQ(getU32(bytes, at), 1u) << "the dependent was the last load";
    EXPECT_NO_THROW(restoreFresh(bytes));
    putU32(bytes, at, CoreParams{}.robSize);
    EXPECT_THROW(restoreFresh(bytes), CheckpointError);
}

TEST(CoreModel, RestoreRefusesReadyEntryDependenceOutOfRange)
{
    // depResolved reads rob[depIdx] for every ready-list entry still
    // waiting on its producer.
    const Addr dep_vaddr = 0x5eed0000abcdull;
    std::vector<std::uint8_t> bytes = wokenDependentBytes(dep_vaddr);
    // Find the dependent's ROB entry by its pc and vaddr; gen and
    // waitingDep follow, then depIdx.
    std::vector<std::uint8_t> pattern;
    for (const Addr v : {Addr{0x1000}, dep_vaddr}) {
        for (std::size_t i = 0; i < 8; ++i)
            pattern.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
    const auto it = std::search(bytes.begin(), bytes.end(),
                                pattern.begin(), pattern.end());
    ASSERT_NE(it, bytes.end());
    const std::size_t entry = static_cast<std::size_t>(it - bytes.begin());
    ASSERT_EQ(bytes[entry + 24], 1u) << "waitingDep";
    const std::size_t dep_at = entry + 25;
    ASSERT_EQ(getU32(bytes, dep_at), 0u) << "depIdx: the producer's slot";
    EXPECT_NO_THROW(restoreFresh(bytes));
    putU32(bytes, dep_at, CoreParams{}.robSize);
    EXPECT_THROW(restoreFresh(bytes), CheckpointError);
}

} // namespace
} // namespace bop
