/**
 * @file
 * Cache replacement policy interface plus the simple stack-based policy
 * (LRU). The paper's 5P policy and DRRIP live in their own files.
 *
 * Policies manage a per-set recency/age state and answer three questions:
 * which way to evict, what to do on a hit, and where to insert a fill.
 * The cache itself prefers invalid ways before consulting the policy.
 *
 * Hot-path layout: every policy keeps its per-set state in one flat
 * array sized once in reset(): one 64-bit word per set, 4 bits per way.
 * Every cache the paper specifies fits (8-way DL1 and L2, 16-way L3,
 * Table 1), and SetAssocCache refuses more than 16 ways, so each
 * operation — promoting a way to MRU on a hit, clearing an RRPV,
 * picking a victim — is a handful of shifts and masks on one cached
 * word, with one implementation. The hit update is deliberately
 * *non-virtual*: every policy's hit behavior is one of two word updates
 * (stack MRU-promotion or RRPV-clear), selected by a tag the concrete
 * policy sets at construction, so SetAssocCache::access pays no virtual
 * dispatch on the hit path.
 *
 * A restore refuses any word the policy's own operations could not
 * have produced (serialize() and the validWord() overrides), so no
 * checkpoint can steer a lookup outside its set.
 */

#ifndef BOP_CACHE_REPLACEMENT_HH
#define BOP_CACHE_REPLACEMENT_HH

#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/serializer.hh"
#include "common/types.hh"

namespace bop
{

/**
 * Metadata describing the fill that is being inserted, used by
 * prefetch-aware / core-aware insertion policies.
 */
struct FillInfo
{
    CoreId core = 0;        ///< core the block was fetched for
    bool demand = true;     ///< true: demand miss; false: prefetch fill
};

/** Abstract replacement policy for one set-associative array. */
class ReplacementPolicy
{
  public:
    virtual ~ReplacementPolicy() = default;

    /** (Re)size internal state for a sets x ways array; clears state. */
    virtual void reset(std::size_t sets, unsigned ways) = 0;

    /** Choose a victim way in a full set. */
    virtual unsigned victim(std::size_t set) = 0;

    /**
     * Predict the victim way without mutating policy state (used to
     * test backpressure conditions before committing an insertion).
     * Must return the same way victim() would.
     */
    virtual unsigned victimPeek(std::size_t set) const = 0;

    /** Update state after filling @p way with a new block. */
    virtual void onFill(std::size_t set, unsigned way,
                        const FillInfo &info) = 0;

    /**
     * Update state after a hit on @p way. Non-virtual: dispatches on the
     * HitUpdate tag fixed at construction, so the cache's hit path costs
     * one predictable branch instead of a virtual call.
     */
    void
    onHit(std::size_t set, unsigned way)
    {
        if (hitUpdate == HitUpdate::StackMru)
            touchMru(set, way);
        else
            words[set] &= ~(nibbleMask << (way * 4u)); // RRPV -> 0
    }

    /**
     * Checkpoint the per-set words. Policies with extra mutable state
     * (DRRIP's PSEL + RNG, 5P's RNG and counters) extend this;
     * geometry/config fields are rebuilt by reset() at construction and
     * are not serialized. A load refuses a word count other than the
     * set count, a filler nibble other than 0xF and any word
     * validWord() rejects.
     */
    virtual void
    serialize(Serializer &s);

  protected:
    /** The two hit-update flavors shared by all concrete policies. */
    enum class HitUpdate : std::uint8_t
    {
        StackMru,  ///< promote the way to the MRU recency position
        RrpvClear, ///< zero the way's re-reference prediction value
    };

    explicit ReplacementPolicy(HitUpdate hit) : hitUpdate(hit) {}

    /** Widest geometry whose per-set state fits one word. */
    static constexpr unsigned maxWays = 16;
    static constexpr std::uint64_t nibbleMask = 0xf;
    /** 1 in every nibble: per-nibble broadcast/increment constant. */
    static constexpr std::uint64_t nibbleOnes = 0x1111111111111111ull;

    /**
     * Size the state for a sets x ways array: every set's word is
     * @p in_range in the low @p ways nibbles and 0xF in the filler
     * nibbles above them.
     */
    void
    resetWords(std::size_t sets, unsigned ways, std::uint64_t in_range)
    {
        assert(ways >= 1 && ways <= maxWays && "one word holds 16 ways");
        numWays = ways;
        words.assign(sets, (in_range & waysMask()) | ~waysMask());
    }

    /** Mask covering the low numWays nibbles of a word. */
    std::uint64_t
    waysMask() const
    {
        return numWays == maxWays ? ~0ull : (1ull << (4u * numWays)) - 1;
    }

    /**
     * False when the low numWays nibbles of @p word hold a state this
     * policy's operations cannot produce (serialize() checks that the
     * filler nibbles are 0xF).
     */
    virtual bool validWord(std::uint64_t word) const = 0;

    /**
     * Index of the LOWEST nibble holding @p value, or >= 16 when no
     * nibble matches (branchless zero-nibble SWAR scan; borrow
     * propagation can only flag false positives above the lowest true
     * match, so the lowest-set-bit pick below is exact, and a
     * match-free word produces no borrows at all). DRRIP relies on
     * both properties: its victim scan has zero or several matching
     * nibbles. Out-of-range filler nibbles are 0xF, which cannot match
     * any way index or RRPV value of a <16-way array.
     */
    static unsigned
    findNibble(std::uint64_t word, unsigned value)
    {
        const std::uint64_t x = word ^ (nibbleOnes * value);
        // High bit of each nibble that was zero in x; countr_zero(0) is
        // 64, giving the >= 16 no-match return.
        const std::uint64_t zero =
            (x - nibbleOnes) & ~x & (nibbleOnes << 3);
        return static_cast<unsigned>(std::countr_zero(zero)) / 4u;
    }

    /** Promote @p way to the MRU position (recency-stack policies). */
    void
    touchMru(std::size_t set, unsigned way)
    {
        std::uint64_t &word = words[set];
        const unsigned p = findNibble(word, way);
        assert(p < numWays && "way not present in recency stack");
        const std::uint64_t low = word & ((1ull << (4u * p)) - 1);
        // Keep nibbles above p (double shift avoids UB at p == 15).
        word = (word & ((~0ull << (4u * p)) << 4)) | (low << 4) | way;
    }

    /** Demote @p way to the LRU position (recency-stack policies). */
    void
    touchLru(std::size_t set, unsigned way)
    {
        std::uint64_t &word = words[set];
        const unsigned p = findNibble(word, way);
        assert(p < numWays && "way not present in recency stack");
        const std::uint64_t low = word & ((1ull << (4u * p)) - 1);
        const std::uint64_t mid = ((word >> (4u * p)) >> 4) &
                                  ((1ull << (4u * (numWays - 1 - p))) - 1);
        word = (word & ~waysMask()) |
               (static_cast<std::uint64_t>(way) << (4u * (numWays - 1))) |
               (mid << (4u * p)) | low;
    }

    HitUpdate hitUpdate;
    unsigned numWays = 0;
    /**
     * One word per set. Recency-stack policies store the way at recency
     * position p in nibble p (position 0 = MRU); DRRIP stores way w's
     * RRPV in nibble w. Nibbles at or above numWays hold 0xF.
     */
    std::vector<std::uint64_t> words;
};

/**
 * Base class for policies keeping an explicit per-set recency stack
 * (position 0 = MRU, position ways-1 = LRU).
 */
class StackPolicy : public ReplacementPolicy
{
  public:
    StackPolicy() : ReplacementPolicy(HitUpdate::StackMru) {}

    void reset(std::size_t sets, unsigned ways) override;
    unsigned victim(std::size_t set) override;
    unsigned victimPeek(std::size_t set) const override;

    /** Recency position of a way (0 = MRU). Exposed for tests. */
    unsigned positionOf(std::size_t set, unsigned way) const;

  protected:
    /** Way currently at the LRU position of @p set. */
    unsigned
    lruWay(std::size_t set) const
    {
        return static_cast<unsigned>((words[set] >> (4u * (numWays - 1))) &
                                     nibbleMask);
    }

    /** The low numWays nibbles hold each way once. */
    bool validWord(std::uint64_t word) const override;
};

/** Classical LRU: always insert at MRU. */
class LruPolicy final : public StackPolicy
{
  public:
    void onFill(std::size_t set, unsigned way, const FillInfo &info) override;
};

} // namespace bop

#endif // BOP_CACHE_REPLACEMENT_HH
