/**
 * @file
 * The Best-Offset (BO) prefetcher — the paper's contribution (Sec. 4).
 *
 * BO is an offset prefetcher: on an eligible L2 access to line X (miss
 * or prefetched hit) it prefetches X+D, where the offset D is re-learned
 * continuously. Learning tests every offset d in a fixed 52-entry list
 * round-robin, one offset per eligible access: d scores a point when
 * X-d hits in the Recent-Requests table, which records the base address
 * of *completed* prefetches — so a point means "a prefetch issued with
 * offset d for this very access would have been timely". A learning
 * phase ends at the end of a round once some score reaches SCOREMAX or
 * after ROUNDMAX rounds; the best-scoring offset becomes the new D.
 *
 * Throttling (Sec. 4.3): if the best score is not greater than BADSCORE
 * the prefetcher turns itself off — but learning continues, with the RR
 * table then recording every fetched line (as if D=0), so prefetching
 * can resume when the access pattern becomes regular again.
 *
 * DPC-2 variant (paper footnote 1; dpc2BoConfig()). The author's entry
 * to the 2nd Data Prefetching Championship kept this learning
 * algorithm and tuned the machinery around it for scarcer memory
 * bandwidth. It is the same learner with three config changes:
 *
 *  - the RR table is split into two 128-entry banks selected by line
 *    bit 1 (same capacity, fewer conflicts between insertion streams);
 *  - a delay queue: every eligible access enters a 15-entry FIFO and
 *    reaches the RR table 60 cycles later (drained lazily on the next
 *    access; a full queue drops its oldest entry). A delayed entry
 *    means "accessed at least one prefetch latency ago", timeliness
 *    evidence independent of D. It replaces the D=0 insert-on-fill
 *    rule while prefetch is off;
 *  - BADSCORE 10 (vs 1, Sec. 6.1): weakly scoring offsets cost more
 *    than they return under tight bandwidth.
 */

#ifndef BOP_CORE_BEST_OFFSET_HH
#define BOP_CORE_BEST_OFFSET_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "core/offset_list.hh"
#include "core/rr_table.hh"
#include "prefetch/l2_prefetcher.hh"

namespace bop
{

/** BO prefetcher parameters; defaults are the paper's Table 2. */
struct BoConfig
{
    std::size_t rrEntries = 256;  ///< RR table entries
    unsigned rrTagBits = 12;      ///< RR partial tag width
    int scoreMax = 31;            ///< SCOREMAX (5-bit scores)
    int roundMax = 100;           ///< ROUNDMAX
    int badScore = 1;             ///< BADSCORE throttling threshold
    int maxOffset = 256;          ///< offset-list generation bound
    bool includeNegative = false; ///< extension: test negative offsets
    int degree = 1;               ///< 1 = paper; 2 = best + 2nd best
    std::size_t rrBanks = 1;      ///< RR banks (DPC-2: 2)
    /** Delay-queue depth; 0 = no queue (DPC-2: 15). */
    std::size_t delayQueueEntries = 0;
    Cycle delayCycles = 0;        ///< delay-queue latency (DPC-2: 60)

    // -- future-work extensions (paper Sec. 7), all off by default -------

    /**
     * Adjust the throttling threshold dynamically: when a learning
     * phase produced more useless prefetches (evicted with the
     * prefetch bit set) than useful ones (prefetched hits + late
     * promotions), BADSCORE doubles (throttle more eagerly); otherwise
     * it decays by one. The paper's conclusion names this adjustment
     * as future work ("Future work may try to adjust dynamically the
     * throttling parameter").
     */
    bool adaptiveBadScore = false;
    int badScoreMin = 0;          ///< adaptive floor
    int badScoreMax = 15;         ///< adaptive ceiling

    /**
     * Mix coverage into the timeliness-only score (the paper's other
     * future-work item: "striving for prefetch timeliness is not
     * always optimal", cf. the 462.libquantum analysis in Sec. 6).
     * When non-zero, scoring uses half-points: an RR (timely) hit
     * scores 2, and an offset whose prefetch would merely have
     * *covered* the access — the tested base address hits a second
     * table recording every recent eligible access — scores
     * `coverageWeight` (1 = half credit, 2 = equal credit). 0 keeps
     * the paper's scoring exactly.
     */
    int coverageWeight = 0;
};

/** The DPC-2 tuned preset (`bo-dpc2`, paper footnote 1). */
BoConfig dpc2BoConfig();

/** The Best-Offset L2 prefetcher. */
class BestOffsetPrefetcher : public L2Prefetcher
{
  public:
    BestOffsetPrefetcher(PageSize page_size, BoConfig cfg = {});

    void onAccess(const L2AccessEvent &ev,
                  std::vector<LineAddr> &out) override;
    void onFill(const L2FillEvent &ev) override;
    void onEvict(const L2EvictEvent &ev) override;
    void onLatePromotion(LineAddr line, Cycle now) override;

    std::string name() const override { return "bo"; }
    int currentOffset() const override { return prefetchOffset; }
    bool prefetchEnabled() const override { return prefetchOn; }

    // -- introspection (tests, stats, examples) --------------------------
    const std::vector<int> &offsetList() const { return offsets; }
    const std::vector<int> &scoreTable() const { return scores; }
    const RrTable &rrTable() const { return rr; }
    int currentRound() const { return round; }
    std::uint64_t learningPhases() const { return phaseCount; }
    std::uint64_t offPhases() const { return offPhaseCount; }
    int lastPhaseBestScore() const { return lastBestScore; }
    int lastPhaseBestOffset() const { return lastBestOffset; }
    int secondBestOffset() const { return secondOffset; }
    /** Current throttling threshold (== cfg value unless adaptive). */
    int effectiveBadScore() const { return dynBadScore; }
    std::size_t delayQueueSize() const { return delayQueue.size(); }

    /** Directly seed the RR table (tests / standalone experiments). */
    void recordCompletedPrefetchBase(LineAddr base) { rr.insert(base); }

    /**
     * Checkpoint the learning state: score table, both RR tables, the
     * delay queue when configured (in-flight inserts carry absolute
     * due cycles), the round-robin test position, the live
     * offset/on-off decision and the adaptive-threshold state. The
     * offset list itself is config-derived and not serialized.
     */
    void
    serialize(Serializer &s) override
    {
        s.valueVecExact(scores, "BO score table");
        rr.serialize(s);
        rrAny.serialize(s);
        if (cfg.delayQueueEntries > 0) {
            s.seq(delayQueue, [](Serializer &sr, DelayedInsert &d) {
                sr.value(d.line);
                sr.value(d.due);
            }, cfg.delayQueueEntries, "BO delay queue");
        }
        std::uint64_t test64 = testIndex;
        s.value(test64);
        if (s.loading()) {
            if (test64 >= scores.size())
                s.fail("BO test index out of range");
            testIndex = static_cast<std::size_t>(test64);
        }
        s.value(round);
        s.value(scoreMaxHit);
        s.value(bestScoreInPhase);
        s.value(bestOffsetInPhase);
        s.value(prefetchOffset);
        s.value(prefetchOn);
        s.value(secondOffset);
        s.value(phaseCount);
        s.value(offPhaseCount);
        s.value(lastBestScore);
        s.value(lastBestOffset);
        s.value(dynBadScore);
        s.value(usefulInPhase);
        s.value(uselessInPhase);
    }

  private:
    /** One best-offset learning step for the accessed line X. */
    void learnStep(LineAddr x);
    /** Close the current learning phase and start a new one. */
    void endPhase();
    /** Move due delay-queue entries into the RR table. */
    void drainDelayQueue(Cycle now);

    /**
     * Score granularity: 1 in the paper's scheme, 2 under hybrid
     * coverage scoring (so a coverage-only hit can count half).
     */
    int scoreScale() const { return cfg.coverageWeight > 0 ? 2 : 1; }

    BoConfig cfg;
    std::vector<int> offsets;
    std::vector<int> scores;
    RrTable rr;
    RrTable rrAny;              ///< every recent eligible access (hybrid)

    struct DelayedInsert
    {
        LineAddr line;
        Cycle due;
    };
    std::deque<DelayedInsert> delayQueue;

    std::size_t testIndex = 0;  ///< next offset to test in this round
    int round = 0;
    bool scoreMaxHit = false;   ///< some score reached SCOREMAX
    int bestScoreInPhase = 0;   ///< incremental best (paper footnote 3)
    int bestOffsetInPhase = 1;

    int prefetchOffset = 1;     ///< current D (starts as next-line)
    bool prefetchOn = true;
    int secondOffset = 0;       ///< degree-2 extension companion offset

    std::uint64_t phaseCount = 0;
    std::uint64_t offPhaseCount = 0;
    int lastBestScore = 0;
    int lastBestOffset = 1;

    // future-work extension state
    int dynBadScore;            ///< live threshold (adaptive extension)
    std::uint64_t usefulInPhase = 0;
    std::uint64_t uselessInPhase = 0;
};

} // namespace bop

#endif // BOP_CORE_BEST_OFFSET_HH
