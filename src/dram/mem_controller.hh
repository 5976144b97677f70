/**
 * @file
 * Per-channel memory controller (paper Sec. 5.3).
 *
 * Each channel has its own controller working independently. For
 * fairness, every core owns a 32-entry read queue and a 32-entry write
 * queue in each controller. Scheduling:
 *
 *  - steady mode: a "served core" is selected through four 7-bit
 *    proportional counters (one per core, incremented when a read from
 *    that core issues). The served core changes only when a write queue
 *    fills up or when the served core has no pending read hitting an
 *    open row buffer. Reads use FR-FCFS; rows are left open. Writes
 *    drain in batches of 16, selected out-of-order for row locality
 *    and bank parallelism.
 *  - urgent mode (preempts steady): the lagging core is the one with
 *    the smallest counter among non-empty read queues; if the L3 fill
 *    queue is not full and served-minus-lagging counter difference
 *    exceeds 31, a lagging-core read issues instead.
 *
 * Demand and prefetch reads are treated identically. The read queues
 * are associatively searched before insertion (redundant prefetch
 * removal, Sec. 6.3 footnote).
 */

#ifndef BOP_DRAM_MEM_CONTROLLER_HH
#define BOP_DRAM_MEM_CONTROLLER_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "cache/req.hh"
#include "common/prop_counter.hh"
#include "common/types.hh"
#include "dram/address_map.hh"
#include "dram/dram_timing.hh"

namespace bop
{

/** Aggregate DRAM statistics for one channel. */
struct DramChannelStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t urgentIssues = 0;
    std::uint64_t writeBatches = 0;
};

/** A finished read travelling back up the hierarchy. */
struct CompletedRead
{
    LineAddr line = 0;
    ReqMeta meta;
    Cycle finishCycle = 0; ///< core cycle the data is available at the L3
};

/** One memory channel's controller + timing state. */
class MemoryController
{
  public:
    /** Queue capacity per core per direction (Table 1). */
    static constexpr std::size_t queueCapacity = 32;
    /** Write-drain batch size (Sec. 5.3). */
    static constexpr int writeBatchSize = 16;
    /** Urgent-mode counter-difference threshold (Sec. 5.3). */
    static constexpr std::uint32_t urgentThreshold = 31;

    /**
     * @param timing     DDR3 timing parameters
     * @param channel_id this channel's index
     * @param num_cores  cores sharing the channel: one read queue, one
     *                   write queue and one fairness counter each
     *                   (deliberately no default — the queues index by
     *                   CoreId unchecked, so the topology must be
     *                   stated explicitly)
     */
    MemoryController(const DramTiming &timing, int channel_id,
                     int num_cores);

    // -- enqueue side -----------------------------------------------------
    bool readQueueFull(CoreId core) const;
    bool writeQueueFull(CoreId core) const;
    /** Associative search of all read queues (prefetch dedup). */
    bool readQueueContains(LineAddr line) const;
    void enqueueRead(LineAddr line, const ReqMeta &meta, Cycle now);
    void enqueueWrite(LineAddr line, CoreId core, Cycle now);

    /** Urgent mode needs to know whether the L3 fill queue has room;
     *  the caller sets it before every tick(), so it is not saved. */
    void setL3FillQueueFull(bool full) { l3FillFull = full; }

    // -- scheduling --------------------------------------------------------
    /** Advance to @p now (core cycles); schedules on bus-cycle edges. */
    void tick(Cycle now);

    /**
     * Earliest core cycle > @p now at which this controller can act:
     * the next bus edge inside the scheduling look-ahead window while
     * any request is queued (or a write-drain batch is open), or the
     * completion time of a finished read awaiting pickup. neverCycle
     * when fully idle. Contract (event-horizon fast-forward): ticking
     * at any cycle strictly between @p now and the returned horizon
     * would neither issue a request nor complete one.
     */
    Cycle nextEventAt(Cycle now) const;

    /** Drain reads whose data is available by @p now. */
    std::vector<CompletedRead> popCompleted(Cycle now);

    /**
     * Cheap per-tick gate for the completion drain: most cycles finish
     * no read, and the caller should not pay a vector round trip to
     * learn that.
     */
    bool hasCompletedReads() const { return !completedReads.empty(); }

    /**
     * Earliest finishCycle among completed-but-unclaimed reads
     * (neverCycle when none). Scheduled reads sit here until their
     * data-bus burst ends, so this gates the per-tick drain — and it
     * is the completion half of nextEventAt().
     */
    Cycle nextCompletionAt() const { return minFinishAt; }

    // -- observability -----------------------------------------------------
    const DramChannelStats &stats() const { return chanStats; }
    CoreId servedCore() const { return served; }
    int coreCount() const { return static_cast<int>(readQueues.size()); }
    std::size_t readQueueSize(CoreId core) const;
    std::size_t writeQueueSize(CoreId core) const;
    bool anyPending() const;

    /**
     * Checkpoint queues, fairness counters, scheduling mode, bank/bus
     * timing and completed-but-unclaimed reads. A load rebuilds what
     * is a function of them: the pending counts from the queue
     * lengths, each request's DRAM coordinates from its line and the
     * completion gate from the completed reads.
     */
    void serialize(Serializer &s);

  private:
    struct ReadReq
    {
        LineAddr line;
        ReqMeta meta;
        Cycle enqueued;
        DramCoord coord;
    };
    struct WriteReq
    {
        LineAddr line;
        CoreId core;
        Cycle enqueued;
        DramCoord coord;
    };

    /** One scheduling decision at bus cycle @p bc. Returns true if a
     *  request issued. */
    bool scheduleStep(BusCycle bc);
    bool issueWrite(BusCycle bc);
    bool issueReadFrom(CoreId core, BusCycle bc);
    /** Core with smallest counter among non-empty read queues; -1. */
    CoreId laggingCore() const;
    bool servedHasRowHit() const;
    /** DRAM coordinates of @p line on this channel. */
    DramCoord coordOf(LineAddr line) const;

    DramChannelTiming timing;
    int channelId;
    std::vector<std::deque<ReadReq>> readQueues;
    std::vector<std::deque<WriteReq>> writeQueues;
    PropCounterGroup fairness;
    std::size_t pendingReadCount = 0;  ///< over all read queues (CAM gate)
    std::size_t pendingWriteCount = 0; ///< over all write queues
    CoreId served = 0;
    int writeDrainRemaining = 0;
    bool l3FillFull = false;
    std::vector<CompletedRead> completedReads;
    Cycle minFinishAt = neverCycle; ///< min finishCycle in completedReads
    DramChannelStats chanStats;
};

} // namespace bop

#endif // BOP_DRAM_MEM_CONTROLLER_HH
