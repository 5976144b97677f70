/**
 * @file
 * Cache fill queue with associative (CAM) search — the paper's
 * replacement for L2/L3 MSHRs (Sec. 5.4).
 *
 * Life cycle of an entry:
 *   - allocate(): reserved when a miss request is issued to the next
 *     level ("a request is not issued until there is a free entry");
 *   - fillData(): the next level hit, the block is written into the
 *     queue and waits to be inserted into the cache;
 *   - release(): the next level missed too — the entry is freed and the
 *     request travels on (it will come back later via
 *     allocateWithData() when the block is forwarded from outer levels);
 *   - popReady(): the cache inserts blocks from the queue.
 *
 * The CAM supports the late-prefetch optimisation: a demand miss that
 * matches an in-flight prefetch entry is dropped and the entry promoted
 * from prefetch to demand.
 */

#ifndef BOP_CACHE_FILL_QUEUE_HH
#define BOP_CACHE_FILL_QUEUE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "cache/req.hh"
#include "common/types.hh"

namespace bop
{

/** One fill-queue slot. */
struct FillQueueEntry
{
    bool valid = false;
    LineAddr line = 0;
    bool hasData = false;
    Cycle readyAt = 0;      ///< earliest cycle the block may be inserted
    bool isPrefetch = false;///< live status; cleared by promotion
    ReqMeta meta;
    std::uint32_t id = 0;
};

/** Fixed-capacity fill queue with FIFO-ish drain and CAM search. */
class FillQueue
{
  public:
    FillQueue(std::string name, std::size_t capacity);

    bool full() const { return liveEntries >= capacity; }
    std::size_t size() const { return liveEntries; }
    std::size_t cap() const { return capacity; }

    /**
     * Data-less ("waiting") allocations keep a couple of slots in
     * reserve for returning data, so the queue can never be entirely
     * occupied by entries that depend on further downstream progress
     * (deadlock avoidance; see MemHierarchy).
     */
    bool
    canAllocateWaiting() const
    {
        return liveEntries + waitingReserve < capacity;
    }

    /** Reserve an entry for a miss issued to the next level. */
    std::uint32_t allocate(LineAddr line, const ReqMeta &meta,
                           bool is_prefetch);

    /** Free an entry whose request missed in the next level. */
    void release(std::uint32_t id);

    /** Data for a previously allocated entry arrived. */
    void fillData(std::uint32_t id, Cycle ready_at);

    /** Allocate an entry that already carries data (forwarded block). */
    std::uint32_t allocateWithData(LineAddr line, const ReqMeta &meta,
                                   bool is_prefetch, Cycle ready_at);

    /**
     * CAM search by line address; nullptr if absent. Returns the
     * lowest-index matching slot: two cores may each have the same
     * line in flight, and callers act on the first match only.
     */
    FillQueueEntry *find(LineAddr line);
    const FillQueueEntry *find(LineAddr line) const;

    /**
     * Remove and return the oldest entry whose data is ready at @p now.
     * (The paper drains the queue in FIFO order; entries still waiting
     * for next-level data are skipped, which can only reorder an L3-hit
     * fill ahead of an older in-flight allocation.)
     */
    std::optional<FillQueueEntry> popReady(Cycle now);

    /**
     * Peek at the oldest ready entry without removing it (so the caller
     * can test backpressure gates first); nullptr if none.
     */
    FillQueueEntry *peekReady(Cycle now);

    /** Remove a specific (peeked) entry. */
    void removeById(std::uint32_t id) { release(id); }

    /** Entry lookup by id (must be live). */
    FillQueueEntry &entry(std::uint32_t id);

    /**
     * Smallest readyAt among entries that carry data (neverCycle when
     * none do) — the earliest cycle a drain could pop something.
     * Entries still waiting for next-level data contribute nothing:
     * their unblocking event belongs to a downstream component's
     * horizon. Maintained incrementally (recomputed only when the
     * minimum entry leaves); used by the event-horizon fast-forward.
     */
    Cycle minReadyAt() const { return minDataReady; }

    /**
     * Content epoch: advances on every change to which lines the queue
     * holds (allocate, release/remove, pop) and on a checkpoint load,
     * and on nothing else. While it stands still, find() returns the
     * same slot for every line, so a caller may memoize a miss.
     * Host-side only: never serialized.
     */
    std::uint64_t epoch() const { return contentEpoch; }

    /**
     * Checkpoint the slots, the drain order and the id sequence. The
     * occupancy counts and the min-ready gate are pure functions of
     * the slots: a load rebuilds them, after refusing a drain order
     * that does not name exactly the valid slots.
     */
    void serialize(Serializer &s);

  private:
    std::size_t slotOf(std::uint32_t id) const;

    /** Re-derive minDataReady after the minimum entry left. */
    void recomputeMinDataReady();

    /** Slots reserved against waiting-entry exhaustion. */
    static constexpr std::size_t waitingReserve = 2;

    std::string name;
    std::size_t capacity;
    std::size_t liveEntries = 0;
    /**
     * Live entries whose data has arrived. The ready-drain scans run
     * every cycle and on most cycles no entry carries data yet; this
     * count lets them bail before touching the fifo at all.
     */
    std::size_t dataEntries = 0;
    Cycle minDataReady = neverCycle; ///< min readyAt over data entries
    std::uint32_t nextId = 1;
    std::uint64_t contentEpoch = 0; ///< see epoch()
    std::vector<FillQueueEntry> slots;
    /**
     * Live slot indices in allocation order. A flat vector (capacity
     * reserved up front): the per-cycle scans walk one contiguous run,
     * and the occasional mid-erase is a short memmove.
     */
    std::vector<std::uint32_t> fifo;
};

} // namespace bop

#endif // BOP_CACHE_FILL_QUEUE_HH
