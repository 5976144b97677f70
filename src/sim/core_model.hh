/**
 * @file
 * Out-of-order core approximation (paper Table 1, loosely Haswell).
 *
 * The model captures what matters for prefetcher evaluation: a 256-entry
 * ROB bounding memory-level parallelism, dispatch/retire width limits,
 * load/store port limits, a store queue, the DL1 MSHR limit (enforced by
 * the hierarchy), TAGE-predicted branches with a 12-cycle minimum
 * redirect penalty, and data-dependent loads that serialise behind the
 * previous load (pointer chasing). Register renaming, functional units
 * and wrong-path fetch are not modeled — the paper's own simulator also
 * ignores wrong-path effects (Sec. 5).
 *
 * Mechanics per cycle: retire up to retireWidth completed entries from
 * the ROB head; issue loads whose dependences resolved (bounded by load
 * ports); dispatch up to dispatchWidth new trace instructions.
 */

#ifndef BOP_SIM_CORE_MODEL_HH
#define BOP_SIM_CORE_MODEL_HH

#include <cstdint>
#include <vector>

#include "sim/branch_pred.hh"
#include "sim/config.hh"
#include "trace/trace.hh"

namespace bop
{

/** Result of the hierarchy accepting (or not) a load access. */
struct LoadOutcome
{
    enum class Kind
    {
        Hit,     ///< completes at readyAt
        Pending, ///< completion delivered via loadCompleted()
        Retry,   ///< structural hazard (MSHRs full): retry next cycle
    };
    Kind kind = Kind::Retry;
    Cycle readyAt = 0;
};

/** Result of the hierarchy accepting (or not) a store access. */
struct StoreOutcome
{
    bool accepted = false;   ///< false: MSHRs full, retry
    bool completedNow = false; ///< DL1 hit: no store-queue pressure
};

/** Interface the core uses to talk to the memory hierarchy. */
class CoreMemInterface
{
  public:
    virtual ~CoreMemInterface() = default;
    virtual LoadOutcome coreLoad(CoreId core, Addr vaddr, Addr pc,
                                 std::uint32_t rob_tag, Cycle now) = 0;
    virtual StoreOutcome coreStore(CoreId core, Addr vaddr, Addr pc,
                                   Cycle now) = 0;
    /** Retirement-time hook (updates the DL1 stride table in order). */
    virtual void retireMemOp(CoreId core, Addr pc, Addr vaddr) = 0;
};

/** The trace-driven core model. */
class CoreModel
{
  public:
    CoreModel(CoreId id, const CoreParams &params, TraceSource &trace,
              CoreMemInterface &mem);

    /** Advance one cycle. */
    void tick(Cycle now);

    /**
     * Earliest cycle > @p now at which this core can possibly act
     * (event-horizon fast-forward). neverCycle means the core is fully
     * blocked on hierarchy callbacks (loadCompleted / storeCompleted) —
     * the unblocking event belongs to another component's horizon, and
     * this core's horizon must be re-queried after it fires. The
     * contract: ticking the core at any cycle strictly between @p now
     * and the returned horizon would change no state — which also
     * means such ticks can be skipped outright (System does, caching
     * the horizon until horizonStale() reports a state change).
     */
    Cycle nextEventAt(Cycle now) const;

    /** True when state changed since the last clearHorizonStale() —
     *  a cached nextEventAt value is no longer trustworthy. */
    bool horizonStale() const { return horizonStaleFlag; }
    void clearHorizonStale() { horizonStaleFlag = false; }

    /** Hierarchy callback: a pending load's data arrived. */
    void loadCompleted(std::uint32_t rob_tag, Cycle when);

    /** Hierarchy callback: store-queue slots freed by a fill at
     *  cycle @p when. */
    void storeCompleted(int count, Cycle when);

    // -- observability -----------------------------------------------------
    std::uint64_t retired() const { return retiredCount; }
    std::uint64_t branchCount() const { return branches; }
    std::uint64_t mispredictCount() const { return mispredicts; }
    std::size_t robOccupancy() const { return robCount; }
    CoreId id() const { return coreId; }

    /**
     * Checkpoint the full core state: ROB, waiting lists, dispatch
     * hold, port/queue occupancy, counters and the branch predictor.
     * The issueWaiting scratch buffers are empty between ticks and the
     * cached horizon is marked stale on restore instead of saved.
     * @p now is the System clock: a save first settles the ticks
     * skipped through it (see settle()), a restore resumes from it.
     */
    void serialize(Serializer &s, Cycle now);

  private:
    struct RobEntry
    {
        bool valid = false;
        InstrKind kind = InstrKind::IntOp;
        bool done = false;
        bool waitingDep = false;
        bool issued = false;         ///< loads: access sent to the DL1
        bool mispredict = false;     ///< branches: redirect when resolved
        std::uint32_t depIdx = 0;
        /**
         * This entry's dependents parked in blockedQ: their count and
         * the seq of the first. Not checkpointed; serialize() rebuilds
         * it from blockedQ.
         */
        std::uint32_t blockedCount = 0;
        std::uint64_t blockedFirstSeq = 0;
        Cycle readyAt = 0;
        Addr pc = 0;
        std::uint64_t gen = 0;       ///< generation (stale-dep detection)
        /** Not next to pc: dispatchOne then copies the two from the
         *  trace record in two 8-byte loads, as the trace source wrote
         *  them, not in one 16-byte load the store buffer cannot
         *  forward. */
        Addr vaddr = 0;
        std::uint64_t depGen = 0;
    };

    /**
     * A parked ROB entry. The waiting list is split in two seq-sorted
     * halves: readyQ holds entries issueWaiting will (re)process next
     * tick (structural retries, woken dependents), blockedQ entries
     * parked on a live, not-yet-done producer load. Blocked entries
     * move to ready only through an explicit wake — the producer
     * completing as a cache hit mid-scan, or a loadCompleted()
     * callback — so the per-tick scan and the horizon test touch the
     * (typically tiny) ready half only. seq is the insertion stamp:
     * merging wakes in seq order reproduces the single-list scan's
     * processing order exactly (a dependent always dispatches, hence
     * stamps, after its producer).
     *
     * Every blocked entry waits on the load that was the latest at its
     * dispatch, and only loads end that role, so one producer's
     * blocked dependents hold consecutive seq stamps: no other entry
     * is stamped between them. A wake moves that run as one block,
     * found through the producer's blockedFirstSeq/blockedCount.
     */
    struct WaitRef
    {
        std::uint32_t idx = 0;  ///< rob index
        std::uint64_t seq = 0;  ///< insertion order stamp
    };

    bool dispatchOne(const TraceInstr &instr, Cycle now);
    /** The held instruction is a load or store facing a full queue,
     *  which only retirement or a storeCompleted() can drain. */
    bool holdBlocked() const;
    /**
     * Account for the ticks through @p through that nextEventAt
     * skipped for ready loads waiting on a future producer. Checkpoint
     * bytes are those of a core ticked every cycle while its readyQ is
     * non-empty. Such ticks change no simulated result but leave
     * bookkeeping: zeroed port counters and, for a held instruction
     * facing its full queue, one refused dispatch per tick (a load's
     * refusal consumes a generation stamp and fills the ROB tail
     * slot). settle() replays it. It runs before anything else changes
     * the core: at the next tick, a hierarchy callback, or a save.
     */
    void settle(Cycle through);
    void issueWaiting(Cycle now);
    void retire(Cycle now);
    /** True when the dependence of @p e has resolved; sets dep time. */
    bool depResolved(const RobEntry &e, Cycle &dep_ready) const;

    /**
     * Move @p producer's blocked dependents into @p into, keeping it
     * seq-sorted from position @p from on. Used with readyQ (callback
     * wakes) and the mid-scan woken buffer.
     */
    void wakeDependents(RobEntry &producer, std::vector<WaitRef> &into,
                        std::size_t from);
    /** Park ROB entry @p idx in blockedQ behind the latest load. */
    void block(std::uint32_t idx);
    /** Restore: rebuild the blocked-run index from blockedQ, failing
     *  @p s if the list breaks the one-run-per-producer shape. */
    void rebuildBlockedRuns(Serializer &s);

    CoreId coreId;
    CoreParams params;
    TraceSource &trace;
    CoreMemInterface &mem;
    TagePredictor predictor;

    std::vector<RobEntry> rob;
    std::uint32_t robHead = 0;
    std::uint32_t robTail = 0;
    std::size_t robCount = 0;
    std::uint64_t genCounter = 1;

    std::vector<WaitRef> readyQ;   ///< processable next tick (seq order)
    std::vector<WaitRef> blockedQ; ///< parked on a producer (seq order)
    std::uint64_t waitSeq = 0;     ///< next WaitRef::seq stamp
    std::vector<WaitRef> keepScratch;  ///< issueWaiting: survivors
    std::vector<WaitRef> wokenScratch; ///< issueWaiting: mid-scan wakes

    bool holdValid = false;   ///< instruction stalled at dispatch
    TraceInstr holdInstr;

    Cycle fetchStallUntil = 0;
    bool stalledOnBranchDep = false;

    std::uint32_t lastLoadIdx = 0;
    std::uint64_t lastLoadGen = 0;   ///< 0: no live previous load

    unsigned loadsThisCycle = 0;
    unsigned storesThisCycle = 0;
    std::size_t loadsInFlight = 0;   ///< load-queue occupancy
    std::size_t pendingStores = 0;   ///< store-queue occupancy

    std::uint64_t retiredCount = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;

    /** Set by tick() and the hierarchy callbacks; see horizonStale(). */
    bool horizonStaleFlag = true;

    Cycle settledThrough = 0;    ///< last cycle ticked or settled
    bool readyAfterTick = false; ///< readyQ non-empty at settledThrough
};

} // namespace bop

#endif // BOP_SIM_CORE_MODEL_HH
