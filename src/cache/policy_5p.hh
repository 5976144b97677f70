/**
 * @file
 * The paper's 5P last-level-cache replacement policy (Sec. 5.2).
 *
 * 5P is DIP-style set sampling extended to five insertion policies:
 *   IP1: MRU insertion (classical LRU replacement)
 *   IP2: bimodal LRU/MRU insertion (BIP)
 *   IP3: MRU insertion only for demand misses (prefetch fills go to LRU)
 *   IP4: MRU insertion only for blocks fetched by a low-miss-rate core
 *   IP5: MRU only for demand misses from a low-miss-rate core
 *
 * Because more than two policies compete, DIP's single PSEL counter is
 * replaced by one "proportional counter" per policy: a demand-miss fill
 * into a set dedicated to IPi increments counter Ci; all five counters
 * are halved when any reaches CMAX; follower sets use the policy with
 * the lowest counter (fewest recent demand misses).
 *
 * Core miss rates are tracked the same way with four per-core counters:
 * a core is "low miss rate" when its counter is below 1/4 of the current
 * maximum (Sec. 5.2). On a hit, the block always moves to MRU.
 */

#ifndef BOP_CACHE_POLICY_5P_HH
#define BOP_CACHE_POLICY_5P_HH

#include <cstdint>
#include <vector>

#include "cache/replacement.hh"
#include "common/prop_counter.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace bop
{

/** The five insertion policies competing inside 5P. */
enum class InsertionPolicy : int
{
    IP1_Mru = 0,
    IP2_Bip = 1,
    IP3_DemandMru = 2,
    IP4_LowMissCoreMru = 3,
    IP5_DemandLowMissCoreMru = 4,
};

/** Number of insertion policies in 5P. */
constexpr int numInsertionPolicies = 5;

/** The 5P prefetch- and core-aware replacement policy. */
class Policy5P final : public StackPolicy
{
  public:
    /**
     * @param seed          RNG seed for the BIP component
     * @param num_cores     cores sharing the cache (one miss counter
     *                      each; the paper's chip has 4)
     * @param constituency  sets per constituency (paper: 128)
     * @param counter_bits  width of the proportional counters (paper: 12)
     */
    explicit Policy5P(std::uint64_t seed = 0x5105, int num_cores = 4,
                      std::size_t constituency = 128,
                      unsigned counter_bits = 12)
        : rng(seed),
          constituencySize(constituency),
          policyCounters(numInsertionPolicies, counter_bits),
          coreMissCounters(static_cast<std::size_t>(num_cores),
                           counter_bits)
    {
    }

    void reset(std::size_t sets, unsigned ways) override;
    void onFill(std::size_t set, unsigned way, const FillInfo &info) override;

    /** Checkpoint recency stacks plus the BIP RNG and the counters. */
    void
    serialize(Serializer &s) override
    {
        ReplacementPolicy::serialize(s);
        rng.serialize(s);
        policyCounters.serialize(s);
        coreMissCounters.serialize(s);
    }

    /**
     * Leader-set mapping: within each constituency, one set is dedicated
     * to each insertion policy. Returns the policy index for a leader
     * set, or -1 for follower sets. Exposed for tests. Answered from a
     * flat per-set table built in reset() (onFill runs once per cache
     * insertion, and the modulo arithmetic was measurable there).
     */
    int leaderPolicyOf(std::size_t set) const;

    /** Policy currently used by follower sets. Exposed for tests. */
    InsertionPolicy followerPolicy() const;

    /** True iff @p core currently counts as low-miss-rate. */
    bool coreHasLowMissRate(CoreId core) const;

    /** Counter value for insertion policy @p i (tests/debug). */
    std::uint32_t policyCounter(int i) const
    {
        return policyCounters.value(static_cast<std::size_t>(i));
    }

  private:
    /** Apply insertion policy @p ip to the just-filled way. */
    void applyInsertion(InsertionPolicy ip, std::size_t set, unsigned way,
                        const FillInfo &info);

    /** Leader policy of a set from the constituency layout alone. */
    int computeLeaderPolicy(std::size_t set) const;

    Rng rng;
    std::size_t constituencySize;
    PropCounterGroup policyCounters;
    PropCounterGroup coreMissCounters;
    /** Per-set leader policy (-1 follower), precomputed in reset(). */
    std::vector<std::int8_t> leaderTable;
};

} // namespace bop

#endif // BOP_CACHE_POLICY_5P_HH
