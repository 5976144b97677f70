/**
 * @file
 * The 8-entry L2 prefetch queue (paper Sec. 5.4): "Prefetch requests
 * wait in an 8-entry prefetch queue until they can access the L3 cache.
 * When a prefetch request is inserted into the queue, and if the queue
 * is full, the oldest request is cancelled." Prefetches have the lowest
 * priority for L3 access, and the queue is associatively searched to
 * drop redundant prefetches before insertion.
 */

#ifndef BOP_CACHE_PREFETCH_QUEUE_HH
#define BOP_CACHE_PREFETCH_QUEUE_HH

#include <cstdint>
#include <deque>
#include <optional>

#include "cache/req.hh"
#include "common/types.hh"

namespace bop
{

/** A pending L2 prefetch request waiting for L3 access. */
struct PrefetchRequest
{
    LineAddr line = 0;
    ReqMeta meta;
    Cycle readyAt = 0;  ///< earliest cycle it may access the L3
};

/** Bounded FIFO with oldest-cancel overflow and associative search. */
class PrefetchQueue
{
  public:
    explicit PrefetchQueue(std::size_t capacity_) : capacity(capacity_) {}

    /**
     * Insert a request; if the queue is full the oldest request is
     * cancelled. @return true if an old request was cancelled.
     */
    bool insert(const PrefetchRequest &req);

    /** Associative search (for redundant-prefetch dropping). */
    bool contains(LineAddr line) const;

    /** Pop the oldest request that is ready at @p now. */
    std::optional<PrefetchRequest> popReady(Cycle now);

    /** Peek the oldest ready request (for backpressure checks). */
    const PrefetchRequest *peekReady(Cycle now) const;

    /** Remove the oldest ready request (after a successful peek). */
    void popFront(Cycle now);

    std::size_t size() const { return queue.size(); }
    bool empty() const { return queue.empty(); }
    std::size_t cap() const { return capacity; }

    /**
     * Smallest readyAt in the queue; neverCycle when empty. Already
     * maintained for the per-cycle ready gate — the event-horizon
     * fast-forward reads it as this queue's next-event time.
     */
    Cycle minReadyAt() const { return minReady; }

    /** Checkpoint the queued requests; a load rebuilds the min-ready
     *  gate from them. */
    void
    serialize(Serializer &s)
    {
        s.seq(queue, [](Serializer &sr, PrefetchRequest &r) {
            sr.value(r.line);
            r.meta.serialize(sr);
            sr.value(r.readyAt);
        }, capacity, "prefetch queue");
        if (s.loading())
            recomputeMinReady();
    }

  private:
    /** Sentinel: no queued request can ever become ready. */
    static constexpr Cycle noneReady = neverCycle;

    void recomputeMinReady();

    std::size_t capacity;
    std::deque<PrefetchRequest> queue;
    /**
     * Smallest readyAt in the queue (noneReady when empty), maintained
     * on every mutation so the per-cycle ready checks can bail with one
     * compare instead of scanning the queue.
     */
    Cycle minReady = noneReady;
};

} // namespace bop

#endif // BOP_CACHE_PREFETCH_QUEUE_HH
