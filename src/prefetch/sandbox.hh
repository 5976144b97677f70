/**
 * @file
 * Sandbox prefetcher (SBP) [Pugsley et al., HPCA'14], in the modified
 * form the paper compares against (Sec. 6.3):
 *
 *  - same 52-offset candidate list as the BO prefetcher;
 *  - a 2048-bit Bloom filter with 3 hash functions as the sandbox;
 *  - an evaluation period of 256 eligible L2 accesses (miss or
 *    prefetched hit) per candidate offset;
 *  - during a period with candidate D, each access X performs a fake
 *    prefetch (inserts X+D into the filter) and checks the filter for
 *    X, X-D, X-2D and X-3D, incrementing D's score on every hit;
 *  - offsets whose score passes accuracy cutoffs issue real prefetches
 *    with degree 1, 2 or 3 depending on the score;
 *  - the L2 tags are looked up before issuing (degree-N prefetching
 *    generates redundant requests; paper assumes this check is free).
 *
 * The sandbox method measures accuracy only — not timeliness — which is
 * precisely the weakness the BO prefetcher addresses.
 */

#ifndef BOP_PREFETCH_SANDBOX_HH
#define BOP_PREFETCH_SANDBOX_HH

#include <cstdint>
#include <vector>

#include "prefetch/bloom.hh"
#include "prefetch/l2_prefetcher.hh"

namespace bop
{

/** Tunables for the Sandbox prefetcher. */
struct SbpConfig
{
    /** Eligible accesses per candidate evaluation period. */
    int evalPeriod = 256;
    std::size_t bloomBits = 2048;
    unsigned bloomHashes = 3;
    /**
     * Score cutoffs (relative to evalPeriod) for issuing with degree
     * >= 1 / 2 / 3. Defaults: 75% / 90% / 97% — the sandbox method only
     * issues for candidates whose measured accuracy is high, which is
     * what keeps its pollution acceptable without a timeliness signal.
     */
    int cutoffDegree1 = 192;
    int cutoffDegree2 = 232;
    int cutoffDegree3 = 248;
    /**
     * Cap on simultaneously active offsets (best scores win). The
     * original SBP has a small candidate set; with the 52-entry list an
     * uncapped prefetch set could issue dozens of requests per access.
     */
    int maxActiveOffsets = 2;
    std::uint64_t seed = 0x5b9;
};

/** Sandbox (SBP) offset prefetcher. */
class SandboxPrefetcher : public L2Prefetcher
{
  public:
    SandboxPrefetcher(PageSize page_size, std::vector<int> offsets,
                      SbpConfig cfg = {});

    void onAccess(const L2AccessEvent &ev,
                  std::vector<LineAddr> &out) override;

    bool requiresTagCheck() const override { return true; }
    std::string name() const override { return "sbp"; }

    /** Highest-scoring active offset (debug). */
    int currentOffset() const override;

    /** Active prefetch set: (offset, degree) pairs. Exposed for tests. */
    struct ActiveOffset
    {
        int offset;
        int degree;
        int score;
    };
    const std::vector<ActiveOffset> &activeSet() const { return active; }

    /** Candidate currently being evaluated in the sandbox (tests). */
    int candidateUnderEvaluation() const { return offsets[candIndex]; }

    /**
     * Checkpoint the score table, sandbox filter, in-period counters
     * and the active prefetch set (offset list is config-derived).
     */
    void
    serialize(Serializer &s) override
    {
        s.valueVecExact(scores, "SBP score table");
        s.boolVecExact(evaluated, "SBP evaluated flags");
        sandbox.serialize(s);
        std::uint64_t cand64 = candIndex;
        s.value(cand64);
        s.value(accessesThisPeriod);
        s.value(scoreThisPeriod);
        s.value(insertedThisPeriod);
        s.seq(active, [](Serializer &sr, ActiveOffset &a) {
            sr.value(a.offset);
            sr.value(a.degree);
            sr.value(a.score);
        }, static_cast<std::size_t>(cfg.maxActiveOffsets),
              "SBP active offsets");
        if (s.loading()) {
            if (cand64 >= offsets.size())
                s.fail("SBP candidate index out of range");
            candIndex = static_cast<std::size_t>(cand64);
        }
    }

  private:
    /** Finish the current candidate's period and move to the next. */
    void rotateCandidate();
    /** Recompute the active prefetch set from the score table. */
    void rebuildActiveSet();

    SbpConfig cfg;
    std::vector<int> offsets;     ///< candidate offsets (positive)
    std::vector<int> scores;      ///< last completed score per candidate
    std::vector<bool> evaluated;  ///< candidate has a valid score
    BloomFilter sandbox;
    std::size_t candIndex = 0;    ///< candidate currently in the sandbox
    int accessesThisPeriod = 0;
    int scoreThisPeriod = 0;
    int insertedThisPeriod = 0;   ///< fake prefetches that passed the
                                  ///< page check (score normaliser)
    std::vector<ActiveOffset> active;
};

} // namespace bop

#endif // BOP_PREFETCH_SANDBOX_HH
