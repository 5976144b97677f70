/**
 * @file
 * Stream buffers [Jouppi, ISCA'90], the paper's ref [15] — the classic
 * sequential prefetching mechanism the Sec. 2 background contrasts
 * offset prefetching with.
 *
 * The original design holds prefetched lines in small FIFOs beside the
 * cache: a miss that matches no buffer allocates one (starting at the
 * missing line + 1), a demand access hitting a buffer *head* moves that
 * line into the cache and the buffer fetches one more line to stay
 * full. Multiple buffers capture interleaved streams.
 *
 * Substitution note (docs/WORKLOADS.md, "Other substitutions"): our
 * substrate prefetches into the L2 proper rather than into separate
 * buffer storage — the L2's prefetch bits already measure pollution,
 * and the paper's own L2 prefetchers all fill the cache directly. The
 * FIFO state here therefore tracks *what each buffer has requested*,
 * steering allocation and top-up exactly like the original, while the
 * blocks themselves live in the L2. Jouppi's "incremented" addresses
 * are ascending only; allocation stops at page boundaries like every
 * L2 prefetcher in this study.
 */

#ifndef BOP_PREFETCH_STREAM_BUFFER_HH
#define BOP_PREFETCH_STREAM_BUFFER_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "prefetch/l2_prefetcher.hh"

namespace bop
{

/** Stream-buffer parameters (Jouppi's multi-way stream buffers). */
struct StreamBufferConfig
{
    int buffers = 4;     ///< number of stream buffers
    int depth = 8;       ///< lines each buffer runs ahead
    /**
     * Allocate only on misses whose next line is not already tracked
     * ("allocation filter": avoids burning a buffer on an isolated
     * miss that an existing stream will cover).
     */
    bool allocationFilter = true;
};

/** Multi-way sequential stream buffers at the L2. */
class StreamBufferPrefetcher : public L2Prefetcher
{
  public:
    StreamBufferPrefetcher(PageSize page_size,
                           StreamBufferConfig cfg = {});

    void onAccess(const L2AccessEvent &ev,
                  std::vector<LineAddr> &out) override;

    bool requiresTagCheck() const override { return true; }
    std::string name() const override { return "streambuf"; }

    // -- introspection (tests) --------------------------------------------
    int activeBuffers() const;

    /** FIFO contents of buffer @p i, head first (tests). */
    std::vector<LineAddr> bufferLines(int i) const;

    /** Checkpoint every buffer's FIFO and the LRU clock. */
    void
    serialize(Serializer &s) override
    {
        s.seqExact(buffers, [this](Serializer &sr, Buffer &b) {
            sr.value(b.valid);
            sr.seq(b.fifo, [](Serializer &sq, LineAddr &l) { sq.value(l); },
                   static_cast<std::size_t>(cfg.depth), "stream buffer FIFO");
            sr.value(b.nextLine);
            sr.value(b.lruStamp);
        }, "stream buffers");
        s.value(stamp);
    }

  private:
    struct Buffer
    {
        bool valid = false;
        std::deque<LineAddr> fifo;  ///< lines requested, head first
        LineAddr nextLine = 0;      ///< next line to request
        std::uint64_t lruStamp = 0;
    };

    /** Find the buffer holding @p line anywhere in its FIFO. */
    Buffer *findBuffer(LineAddr line);

    /** Allocate (recycling the LRU buffer) for a stream at @p line+1. */
    void allocate(LineAddr line, std::vector<LineAddr> &out);

    /** Keep @p b full up to depth, appending requests to @p out. */
    void topUp(Buffer &b, std::vector<LineAddr> &out);

    StreamBufferConfig cfg;
    std::vector<Buffer> buffers;
    std::uint64_t stamp = 0;
};

} // namespace bop

#endif // BOP_PREFETCH_STREAM_BUFFER_HH
