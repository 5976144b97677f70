/**
 * @file
 * Stream prefetcher (extension; paper Sec. 2 background).
 *
 * A classical L2 stream prefetcher in the Jouppi / Palacharla-Kessler
 * tradition, included as an extra comparison point beyond the paper's
 * evaluation: unlike offset prefetchers it *detects* streams before
 * issuing, tracking per-region ascending/descending miss runs in a
 * small tracker table, then prefetches `degree` lines at `distance`
 * ahead of the stream head. This is the class of prefetcher offset
 * prefetching deliberately avoids — no stream state, no training
 * delay — which is what the comparison illustrates.
 */

#ifndef BOP_PREFETCH_STREAM_HH
#define BOP_PREFETCH_STREAM_HH

#include <cstdint>
#include <vector>

#include "prefetch/l2_prefetcher.hh"

namespace bop
{

/** Stream prefetcher parameters. */
struct StreamConfig
{
    int trackers = 16;       ///< simultaneous streams tracked
    int windowLines = 16;    ///< tracker match window (lines)
    int trainThreshold = 2;  ///< monotonic hits before issuing
    int distance = 8;        ///< prefetch-ahead distance (lines)
    int degree = 2;          ///< lines prefetched per trigger
};

/** Classical stream prefetcher at the L2. */
class StreamPrefetcher : public L2Prefetcher
{
  public:
    StreamPrefetcher(PageSize page_size, StreamConfig cfg = {});

    void onAccess(const L2AccessEvent &ev,
                  std::vector<LineAddr> &out) override;

    std::string name() const override { return "stream"; }
    int currentOffset() const override { return cfg.distance; }

    /** Number of currently trained trackers (tests). */
    int trainedStreams() const;

    /** Checkpoint the tracker table and LRU clock. */
    void
    serialize(Serializer &s) override
    {
        s.seqExact(trackers, [](Serializer &sr, Tracker &t) {
            sr.value(t.valid);
            sr.value(t.head);
            sr.value(t.direction);
            sr.value(t.confidence);
            sr.value(t.lruStamp);
        }, "stream tracker table");
        s.value(stamp);
    }

  private:
    struct Tracker
    {
        bool valid = false;
        LineAddr head = 0;      ///< last line seen in the stream
        int direction = 0;      ///< +1 ascending, -1 descending, 0 new
        int confidence = 0;
        std::uint64_t lruStamp = 0;
    };

    Tracker *findTracker(LineAddr line);
    Tracker &allocateTracker(LineAddr line);

    StreamConfig cfg;
    std::vector<Tracker> trackers;
    std::uint64_t stamp = 0;
};

} // namespace bop

#endif // BOP_PREFETCH_STREAM_HH
