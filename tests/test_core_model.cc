/**
 * @file
 * Tests for the OOO core model, using a scripted trace and a mock
 * memory interface with controllable latencies.
 */

#include <gtest/gtest.h>

#include <deque>

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
    core.storeCompleted(mem.stores, 100);
    for (Cycle now = 101; now <= 120; ++now)
        core.tick(now);
    EXPECT_GT(mem.stores, 4);
}

} // namespace
} // namespace bop
