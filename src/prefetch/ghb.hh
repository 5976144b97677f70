/**
 * @file
 * Global History Buffer (GHB) delta-correlation prefetcher — the C/DC
 * scheme of Nesbit et al. [AC/DC, PACT'04; GHB, HPCA'04], the paper's
 * ref [22].
 *
 * Section 3.2 of the Best-Offset paper observes that "a delta
 * correlation prefetcher observing L2 accesses (such as AC/DC) would
 * work perfectly" on periodic line-stride sequences (1,2,1,2,...). This
 * module provides that comparison point.
 *
 * Structure (the GHB of [HPCA'04]):
 *
 *  - a circular *global history buffer* holding the last N eligible L2
 *    access line addresses in FIFO order;
 *  - an *index table* mapping a localising key — here the CZone, the
 *    high-order bits of the line address, because L2 prefetchers have
 *    no PCs (paper Sec. 5.6) — to the most recent GHB entry for that
 *    key; entries chain backwards through link pointers, so walking a
 *    chain yields the zone's recent accesses newest-first.
 *
 * Prediction (the DC part of [PACT'04]): from the chain, build the
 * zone's delta history oldest-first; take the last two deltas as the
 * correlation key; find the key's earliest occurrence in the history;
 * then replay the deltas that followed that occurrence, accumulating
 * them onto the current address, as prefetch predictions (up to
 * `degree`, stopping at the page boundary).
 *
 * The *adaptive* CZone part of AC/DC is modeled with an epoch
 * mechanism: candidate zone sizes are evaluated round-robin, an
 * epoch's score being the number of eligible accesses that had been
 * predicted by the prefetcher during that epoch; after each full pass
 * the best-scoring zone size is used for a run of "exploit" epochs
 * before re-evaluating.
 */

#ifndef BOP_PREFETCH_GHB_HH
#define BOP_PREFETCH_GHB_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "prefetch/l2_prefetcher.hh"

namespace bop
{

/** C/DC parameters; defaults follow Nesbit et al. scaled to our L2. */
struct GhbConfig
{
    std::size_t historyEntries = 256; ///< GHB depth
    std::size_t indexEntries = 256;   ///< index table size (direct-mapped)
    int degree = 4;                   ///< max prefetches per trigger
    int maxChainWalk = 16;            ///< history depth used per zone

    /** log2(lines) of each candidate CZone size; 6 = 4KB zones. */
    std::vector<unsigned> zoneLineBitsCandidates = {6, 8, 10};
    bool adaptiveZones = true;        ///< evaluate candidates in epochs
    int epochAccesses = 1024;         ///< epoch length (eligible accesses)
    int exploitEpochs = 4;            ///< epochs run on the winner
};

/** GHB-based CZone / Delta-Correlation (C/DC) prefetcher. */
class GhbAcdcPrefetcher : public L2Prefetcher
{
  public:
    GhbAcdcPrefetcher(PageSize page_size, GhbConfig cfg = {});

    void onAccess(const L2AccessEvent &ev,
                  std::vector<LineAddr> &out) override;

    bool requiresTagCheck() const override { return true; }
    std::string name() const override { return "acdc"; }

    // -- introspection (tests, benches) ----------------------------------
    unsigned currentZoneLineBits() const { return zoneBits; }
    std::uint64_t epochsElapsed() const { return epochs; }
    int lastEpochScore() const { return lastScore; }

    /**
     * Pure delta-correlation kernel, exposed for unit tests: given a
     * zone's line-address history oldest-first, predict the next
     * @p degree line addresses (empty when no correlation is found).
     */
    static std::vector<LineAddr>
    correlate(const std::vector<LineAddr> &history, int degree);

    /**
     * Checkpoint the GHB, index table and adaptation state. The
     * `predicted` set is serialized as a sorted vector so re-saving a
     * restored prefetcher is byte-identical to the original save.
     */
    void
    serialize(Serializer &s) override
    {
        s.seqExact(history, [](Serializer &sr, GhbEntry &e) {
            sr.value(e.line);
            sr.value(e.prevSerial);
            sr.value(e.hasPrev);
        }, "GHB history");
        s.seqExact(index, [](Serializer &sr, IndexEntry &e) {
            sr.value(e.valid);
            sr.value(e.key);
            sr.value(e.serial);
        }, "GHB index table");
        s.value(nextSerial);
        s.value(zoneBits);
        std::uint64_t cand64 = candIdx;
        s.value(cand64);
        s.value(exploiting);
        s.value(epochsLeft);
        s.value(accessesThisEpoch);
        s.value(scoreThisEpoch);
        s.value(lastScore);
        s.valueVecExact(candScores, "GHB candidate scores");
        s.value(epochs);
        std::vector<LineAddr> pred(predicted.begin(), predicted.end());
        std::sort(pred.begin(), pred.end());
        s.valueVec(pred);
        if (s.loading()) {
            if (cand64 >= cfg.zoneLineBitsCandidates.size())
                s.fail("GHB candidate index out of range");
            candIdx = static_cast<std::size_t>(cand64);
            predicted.clear();
            predicted.insert(pred.begin(), pred.end());
        }
    }

  private:
    struct GhbEntry
    {
        LineAddr line = 0;
        /** Global serial number of the previous same-zone entry. */
        std::uint64_t prevSerial = 0;
        bool hasPrev = false;
    };

    struct IndexEntry
    {
        bool valid = false;
        std::uint64_t key = 0;     ///< full zone key (tag check)
        std::uint64_t serial = 0;  ///< most recent GHB serial for key
    };

    std::uint64_t zoneKey(LineAddr line) const
    {
        return line >> zoneBits;
    }

    /** Walk the chain for @p key; returns history oldest-first. */
    std::vector<LineAddr> chainHistory(std::uint64_t key) const;

    /** Push an access into the GHB and index table. */
    void record(LineAddr line);

    /** Close an adaptation epoch. */
    void endEpoch();

    GhbConfig cfg;
    std::vector<GhbEntry> history;  ///< circular, indexed by serial % N
    std::vector<IndexEntry> index;
    std::uint64_t nextSerial = 1;   ///< 0 is the "invalid" serial

    unsigned zoneBits;              ///< current zone size (log2 lines)

    // adaptation state
    std::size_t candIdx = 0;        ///< candidate under evaluation
    bool exploiting = false;
    int epochsLeft = 0;
    int accessesThisEpoch = 0;
    int scoreThisEpoch = 0;
    int lastScore = 0;
    std::vector<int> candScores;
    std::uint64_t epochs = 0;

    /** Recent predictions, for scoring the adaptation epochs. */
    std::unordered_set<LineAddr> predicted;
    std::vector<LineAddr> scratch;
};

} // namespace bop

#endif // BOP_PREFETCH_GHB_HH
