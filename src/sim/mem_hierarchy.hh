/**
 * @file
 * The full memory hierarchy of the simulated chip (paper Sec. 5): per
 * active core a DL1 + private L2 with fill queue, stride prefetcher, L2
 * prefetcher with 8-entry prefetch queue, two-level TLBs and a
 * randomised page table; a shared non-inclusive L3 with its own fill
 * queue and the 5P (or LRU/DRRIP) replacement policy; M DDR3 channels
 * with fairness-aware controllers. Core and channel counts are runtime
 * topology from SystemConfig (the paper's chip is 4 cores x 2
 * channels), validated at construction.
 *
 * The L2-miss-to-L3 demand path is sharded per DRAM channel: each
 * channel owns its own pending-request queue, and the L3 stage
 * arbitrates between the channel heads in global arrival order with a
 * per-cycle budget that scales with the channel count, as does the L3
 * fill queue capacity (it bounds all in-flight DRAM reads). A full
 * fill queue is global backpressure and stops the stage, exactly as
 * before; a full per-core read queue in one controller is
 * channel-local congestion and parks only that channel's shard for
 * the cycle (counted in RunStats::l3ChannelStalls), so imbalanced
 * traffic on wide chips no longer serializes the other channels.
 *
 * One tick() runs the stages in a fixed order: per core the DL1
 * writebacks and misses into the L2, then the L3 demand and prefetch
 * arbitration, the DRAM controllers, the L3 fill drain and L2
 * writebacks into the L3, and last per core the L2 and DL1 fills.
 *
 * The fill-queue protocol is the paper's MSHR-free design (Sec. 5.4):
 * entries are allocated when a miss issues to the next level, released
 * when that level misses too, refilled when data returns, and CAM
 * searches promote in-flight prefetches hit by demand misses. Prefetch
 * requests have lowest priority into the L3 and can be cancelled any
 * time (oldest-first when the 8-entry prefetch queue overflows).
 *
 * Writebacks: a dirty victim of the DL1 or the L2 travels to the next
 * level through that level's fill queue. If the line is already
 * resident when the writeback drains (or, for the L2, when it
 * arrives), the writeback is a write hit: it marks the line dirty and
 * updates replacement state as a hit does. Under 5P a hit moves the
 * line to MRU and counts as no miss, so a writeback hit changes no
 * insertion-policy or core miss counter; under DRRIP it zeroes the
 * line's RRPV and leaves PSEL alone. Only a writeback whose line is
 * absent is inserted, dirty. The fill stages apply this rule, and the
 * tag check before every fill, through SetAssocCache::fill.
 *
 * Deadlock freedom: fill queues keep two slots in reserve that pure
 * "waiting" allocations may not use, dirty victims of the L2 drain into
 * an unbounded (in practice tiny) writeback buffer, and the memory
 * controllers drain independently — so every blocked queue eventually
 * observes progress downstream.
 */

#ifndef BOP_SIM_MEM_HIERARCHY_HH
#define BOP_SIM_MEM_HIERARCHY_HH

#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "cache/cache.hh"
#include "cache/fill_queue.hh"
#include "cache/mshr.hh"
#include "cache/prefetch_queue.hh"
#include "cache/req.hh"
#include "common/stats.hh"
#include "dram/mem_controller.hh"
#include "prefetch/l2_prefetcher.hh"
#include "prefetch/stride.hh"
#include "sim/config.hh"
#include "sim/core_model.hh"
#include "sim/tlb.hh"
#include "sim/vmem.hh"

namespace bop
{

/** Builds the L3 replacement policy selected by the config. */
std::unique_ptr<ReplacementPolicy> makeL3Policy(const SystemConfig &cfg);

/** Builds the L2 prefetcher selected by the config. */
std::unique_ptr<L2Prefetcher> makeL2Prefetcher(const SystemConfig &cfg);

/** The complete uncore + DL1s. */
class MemHierarchy : public CoreMemInterface
{
  public:
    explicit MemHierarchy(const SystemConfig &cfg);

    /** Register the core object completion callbacks are routed to. */
    void attachCore(CoreId core, CoreModel *model);

    // -- CoreMemInterface ---------------------------------------------------
    LoadOutcome coreLoad(CoreId core, Addr vaddr, Addr pc,
                         std::uint32_t rob_tag, Cycle now) override;
    StoreOutcome coreStore(CoreId core, Addr vaddr, Addr pc,
                           Cycle now) override;
    void retireMemOp(CoreId core, Addr pc, Addr vaddr) override;

    /** Advance the uncore one core cycle. */
    void tick(Cycle now);

    /**
     * Earliest cycle > @p now at which any uncore component can act
     * (event-horizon fast-forward); neverCycle when every queue is
     * empty and every controller idle. Time-gated queues (fill queues
     * with data, prefetch queues, DL1 deliveries, the inter-level
     * request queues) report their min-readyAt; anything occupied but
     * not purely time-gated (writeback buffers, a blocked-but-due
     * head) conservatively reports now + 1. The exceptions are
     * sources a blocked uncore provably holds back: while the L3 fill
     * queue is full, a due demand or prefetch head already known to
     * miss, and the L2 writebacks into the L3; and an L3 fill drain
     * stalled on a full L2 fill queue or DRAM write queue. Those wait
     * for the events that unblock them. Contract: ticking the
     * hierarchy at any cycle strictly between @p now and the returned
     * horizon would change no state. Computed from the queues on every
     * call; System caches the result until horizonStale().
     */
    Cycle nextEventAt(Cycle now) const;

    /** True when state changed since clearHorizonStale() (own tick,
     *  or a core-side entry point pushed work into its side). */
    bool horizonStale() const { return horizonStaleFlag; }
    void clearHorizonStale() { horizonStaleFlag = false; }

    /** Cumulative counters (take deltas across windows for results). */
    RunStats collectStats() const;

    /** True when no request is in flight anywhere (tests). */
    bool quiescent() const;

    /** True when the L3 fill queue is full while a request is due to
     *  enter the L3: an L2 miss or prefetch ready at @p now, or an L2
     *  dirty victim (tests). */
    bool l3EntryBlocked(Cycle now) const;

    /**
     * Checkpoint every core side (caches, MSHRs, queues, prefetchers,
     * TLBs), the L3 with its fill queue and replacement state, the
     * inter-level queues and the cumulative stats. @p now is the
     * System clock: the prefetch round-robin pointer is saved as the
     * ticks skipped through it (none issues a prefetch) would leave
     * it, and a restore resumes from it and marks the horizon stale.
     * A load refuses a queued request that names a core its queue
     * cannot hold: past the active cores, or another core's side.
     * DRAM controller state is a separate section: serializeDram().
     */
    void serialize(Serializer &s, Cycle now);

    /** Checkpoint all memory controllers (bus, banks, queues). */
    void serializeDram(Serializer &s);

    // -- component access (tests, examples) ---------------------------------
    SetAssocCache &dl1(CoreId core) { return side(core).dl1; }
    SetAssocCache &l2(CoreId core) { return side(core).l2; }
    SetAssocCache &l3() { return l3Cache; }
    L2Prefetcher &l2Prefetcher(CoreId core) { return *side(core).l2pf; }
    MemoryController &controller(int channel)
    {
        return *mcs[static_cast<std::size_t>(channel)];
    }
    int channelCount() const { return static_cast<int>(mcs.size()); }
    const SystemConfig &config() const { return cfg; }

  private:
    /** A request travelling between cache levels. */
    struct PendingReq
    {
        LineAddr line = 0;
        ReqMeta meta;
        Cycle readyAt = 0;
        std::uint64_t seq = 0; ///< global arrival order (L3 path only)
    };

    /** A block scheduled to be written into a DL1. */
    struct Dl1Delivery
    {
        LineAddr line = 0;
        ReqMeta meta;
        Cycle at = 0;
    };

    /**
     * Blocked-miss memo for one request head: the line whose L3
     * fill-queue search and L3 tag probe both missed before the head
     * was refused at a gate, and the fill-queue epoch they ran at. L3
     * tags change only in drainOneL3Fill, right after it removes a
     * fill-queue entry (which advances the epoch), so while line and
     * epoch both match, both answers stand and a retry pays only for
     * its gate checks. The memo is host-side state that no simulated
     * result depends on: never serialized, reset on restore.
     */
    struct BlockedMiss
    {
        static constexpr std::uint64_t noEpoch = ~0ull;
        LineAddr line = 0;
        std::uint64_t epoch = noEpoch;

        bool
        matches(LineAddr l, std::uint64_t e) const
        {
            return epoch == e && line == l;
        }
    };

    /** Everything private to one core. */
    struct CoreSide
    {
        CoreSide(const SystemConfig &cfg, CoreId id);

        CoreId id;
        SetAssocCache dl1;
        SetAssocCache l2;
        MshrFile mshr;
        FillQueue l2Fill;
        PrefetchQueue prefetchQueue;
        std::unique_ptr<L2Prefetcher> l2pf;
        std::optional<StridePrefetcher> stride;
        TlbHierarchy tlb;
        VirtualMemory vmem;

        std::deque<PendingReq> toL2;     ///< DL1 misses / L1 prefetches
        std::deque<LineAddr> wbToL2;     ///< DL1 dirty victims
        std::deque<Dl1Delivery> dl1Due;  ///< blocks headed into the DL1
        BlockedMiss pfBlocked;           ///< prefetch-queue head memo
    };

    // -- per-cycle stages ---------------------------------------------------
    void processWbToL2(CoreSide &cs, Cycle now);
    void processToL2(CoreSide &cs, Cycle now);
    void processToL3(Cycle now);
    void processPrefetchQueues(Cycle now);
    void drainDramCompletions(Cycle now);
    bool drainOneL3Fill(Cycle now);
    /** The L3 fill drain cannot insert @p e now: its L2 fill queue or
     *  its dirty victim's DRAM write queue is full. */
    bool l3FillStalled(const FillQueueEntry &e) const;
    void processWbToL3(Cycle now);
    void drainL2Fill(CoreSide &cs, Cycle now);
    void processDl1Deliveries(CoreSide &cs, Cycle now);

    // -- helpers -------------------------------------------------------------
    void triggerL2Prefetcher(CoreSide &cs, const L2AccessEvent &ev);
    void issueL1Prefetch(CoreSide &cs, Addr vaddr, Cycle now);
    int channelOf(LineAddr line) const;

    CoreSide &side(CoreId core)
    {
        return *sides[static_cast<std::size_t>(core)];
    }
    const CoreSide &side(CoreId core) const
    {
        return *sides[static_cast<std::size_t>(core)];
    }

    SystemConfig cfg;          ///< resolved topology (numCores concrete)
    std::vector<std::unique_ptr<CoreSide>> sides;
    SetAssocCache l3Cache;
    FillQueue l3Fill;
    std::vector<std::unique_ptr<MemoryController>> mcs;

    /** Demand L2 misses, sharded per DRAM channel. */
    std::vector<std::deque<PendingReq>> toL3;
    std::uint64_t toL3Seq = 0; ///< global arrival-order stamp
    std::deque<std::pair<LineAddr, CoreId>> wbToL3; ///< L2 dirty victims

    std::vector<CoreModel *> cores;
    unsigned prefetchRr = 0;   ///< round-robin over cores' prefetch queues
    Cycle lastTicked = 0;      ///< fast-forward catch-up (not saved)
    bool horizonStaleFlag = true; ///< see horizonStale()
    RunStats stats;            ///< cumulative core-0 + chip counters
    std::vector<char> chanStalled; ///< per-channel scratch (processToL3)
    std::vector<BlockedMiss> toL3Blocked; ///< per-channel toL3 head memo
    /** Scratch for the L2 prefetchers' proposals (triggerL2Prefetcher). */
    std::vector<LineAddr> prefetchScratch;

    // per-cycle processing budgets; the L3-stage budgets are per
    // channel pair, so the paper's 2-channel chip gets exactly the
    // historical 4 demands + 2 prefetches per cycle and wider
    // topologies scale proportionally.
    static constexpr unsigned l2ReqsPerCycle = 3;
    static constexpr unsigned l3DemandsPerCycle = 4;
    static constexpr unsigned l3PrefetchesPerCycle = 2;
    static constexpr unsigned l3FillsPerCycle = 2;
    static constexpr unsigned l2FillsPerCycle = 2;
    static constexpr unsigned wbPerCycle = 2;

    /** Budget multiplier for the sharded L3 stage. */
    unsigned
    channelLanes() const
    {
        const unsigned ch = static_cast<unsigned>(cfg.numChannels);
        return ch > 2 ? ch / 2 : 1;
    }

    bool anyToL3() const;
    /** Refuse loaded requests whose core their queue cannot hold. */
    void checkRequestCores(const Serializer &s) const;
};

} // namespace bop

#endif // BOP_SIM_MEM_HIERARCHY_HH
