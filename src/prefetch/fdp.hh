/**
 * @file
 * Feedback-Directed Prefetching (FDP) [Srinath et al., HPCA'07].
 *
 * The paper cites FDP (ref [37]) as the prefetcher SBP was originally
 * shown to outperform; it is included here so the full comparison chain
 * next-line < FDP < SBP < BO of the two papers can be reproduced on one
 * substrate.
 *
 * FDP is a stream prefetcher whose aggressiveness — the (distance,
 * degree) pair — is adjusted dynamically by three sampled feedback
 * metrics:
 *
 *  - *accuracy*: used prefetches / issued prefetches. Counted with the
 *    L2 prefetch bits (a prefetched hit is the first use of a
 *    prefetched line) plus late-promotion events.
 *  - *lateness*: late prefetches / useful prefetches. A prefetch is
 *    late when the demand catches it still in flight, which the
 *    hierarchy reports through onLatePromotion().
 *  - *pollution*: demand misses caused by prefetch evictions / demand
 *    misses. Lines evicted by prefetch fills are remembered in a Bloom
 *    filter; a demand miss hitting the filter is a pollution miss.
 *
 * At the end of every sampling interval the three metrics are
 * classified (high/low against thresholds) and indexed into the
 * original paper's adjustment table, moving the aggressiveness level
 * up, down, or not at all across five presets from (4,1) "very
 * conservative" to (64,4) "very aggressive".
 *
 * The stream engine follows the original design: it allocates a
 * tracker per miss region, trains on two further misses to establish a
 * direction, and then issues `degree` prefetches `distance` ahead of
 * the stream head, never crossing a page boundary.
 */

#ifndef BOP_PREFETCH_FDP_HH
#define BOP_PREFETCH_FDP_HH

#include <cstdint>
#include <string>
#include <vector>

#include "prefetch/bloom.hh"
#include "prefetch/l2_prefetcher.hh"

namespace bop
{

/** FDP parameters; defaults follow Srinath et al. scaled to our L2. */
struct FdpConfig
{
    int trackers = 64;          ///< simultaneous streams tracked
    int trainWindow = 16;       ///< lines around the head that train
    int trainThreshold = 2;     ///< monotonic hits needed to go live

    /** Eligible L2 accesses per feedback sampling interval. */
    int sampleInterval = 2048;

    double accHigh = 0.75;      ///< accuracy >= accHigh is "high"
    double accLow = 0.40;       ///< accuracy < accLow is "low"
    double lateThreshold = 0.01;///< lateness fraction considered "late"
    double polThreshold = 0.005;///< pollution fraction considered high

    std::size_t pollutionBits = 4096; ///< pollution Bloom filter size
    unsigned pollutionHashes = 2;

    int initialLevel = 2;       ///< start at "middle" aggressiveness
    std::uint64_t seed = 0xfd9;
};

/** The Feedback-Directed stream Prefetcher. */
class FdpPrefetcher : public L2Prefetcher
{
  public:
    /** One aggressiveness preset: prefetch distance and degree. */
    struct Level
    {
        int distance;
        int degree;
    };

    /** The five presets of the original paper (Table 4 of [37]). */
    static const std::vector<Level> &levels();

    FdpPrefetcher(PageSize page_size, FdpConfig cfg = {});

    void onAccess(const L2AccessEvent &ev,
                  std::vector<LineAddr> &out) override;
    void onFill(const L2FillEvent &ev) override;
    void onEvict(const L2EvictEvent &ev) override;
    void onLatePromotion(LineAddr line, Cycle now) override;

    /**
     * Like every degree-N prefetcher in this study (paper Sec. 6.3),
     * FDP checks the L2 tags before issuing: level changes re-cover
     * line ranges already fetched, and redundant requests would occupy
     * fill-queue entries that demand misses need.
     */
    bool requiresTagCheck() const override { return true; }

    std::string name() const override { return "fdp"; }

    /** Current prefetch distance (closest analogue of an offset). */
    int currentOffset() const override
    {
        return levels()[static_cast<std::size_t>(level)].distance;
    }

    // -- introspection (tests, benches) ----------------------------------
    int aggressivenessLevel() const { return level; }
    double lastAccuracy() const { return lastAcc; }
    double lastLateness() const { return lastLate; }
    double lastPollution() const { return lastPol; }
    std::uint64_t intervalsElapsed() const { return intervals; }
    int trainedStreams() const;

    /**
     * Checkpoint trackers, the aggressiveness level, the in-flight
     * interval counters, the pollution filter and the last interval's
     * metrics.
     */
    void
    serialize(Serializer &s) override
    {
        s.seqExact(trackers, [](Serializer &sr, Tracker &t) {
            sr.value(t.valid);
            sr.value(t.head);
            sr.value(t.direction);
            sr.value(t.confidence);
            sr.value(t.lruStamp);
        }, "FDP tracker table");
        s.value(stamp);
        s.value(level);
        s.value(accessesThisInterval);
        s.value(issued);
        s.value(used);
        s.value(late);
        s.value(polMisses);
        s.value(demandMisses);
        pollution.serialize(s);
        s.value(lastAcc);
        s.value(lastLate);
        s.value(lastPol);
        s.value(intervals);
        if (s.loading() &&
            (level < 0 || static_cast<std::size_t>(level) >= levels().size()))
            s.fail("FDP aggressiveness level out of range");
    }

  private:
    struct Tracker
    {
        bool valid = false;
        LineAddr head = 0;      ///< most recent line of the stream
        int direction = 0;      ///< +1 ascending, -1 descending, 0 new
        int confidence = 0;     ///< monotonic hits seen so far
        std::uint64_t lruStamp = 0;
    };

    Tracker *findTracker(LineAddr line);
    Tracker &allocateTracker(LineAddr line);

    /** Issue prefetches for a trained tracker into @p out. */
    void issueFromTracker(Tracker &t, std::vector<LineAddr> &out);

    /** Close the sampling interval and adjust the level. */
    void endInterval();

    FdpConfig cfg;
    std::vector<Tracker> trackers;
    std::uint64_t stamp = 0;

    int level;                  ///< index into levels()

    // interval counters
    int accessesThisInterval = 0;
    std::uint64_t issued = 0;   ///< prefetches issued this interval
    std::uint64_t used = 0;     ///< prefetched hits + late promotions
    std::uint64_t late = 0;     ///< late promotions this interval
    std::uint64_t polMisses = 0;///< demand misses hitting pollution filter
    std::uint64_t demandMisses = 0;

    BloomFilter pollution;

    // last interval's metrics (introspection)
    double lastAcc = 0.0;
    double lastLate = 0.0;
    double lastPol = 0.0;
    std::uint64_t intervals = 0;
};

} // namespace bop

#endif // BOP_PREFETCH_FDP_HH
