/**
 * @file
 * Cache replacement policy interface plus the simple stack-based policy
 * (LRU). The paper's 5P policy and DRRIP live in their own files.
 *
 * Policies manage a per-set recency/age state and answer three questions:
 * which way to evict, what to do on a hit, and where to insert a fill.
 * The cache itself prefers invalid ways before consulting the policy.
 *
 * Hot-path layout: every policy keeps its per-set state in flat arrays
 * sized once in reset() — no per-access allocation, no nested vectors.
 * For arrays of up to 16 ways the whole per-set state packs into one
 * 64-bit word (4 bits per way), so the dominant operations — promoting
 * a way to MRU on a hit, clearing an RRPV — are a handful of shifts and
 * masks on one cached word. Wider arrays fall back to a flat
 * sets*ways byte array with identical semantics. The hit update is
 * deliberately *non-virtual*: every policy's hit behavior is one of two
 * flat-word updates (stack MRU-promotion or RRPV-clear), selected by a
 * tag the concrete policy sets at construction, so SetAssocCache::access
 * pays no virtual dispatch on the hit path.
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
        else if (packed)
            words[set] &= ~(nibbleMask << (way * 4u)); // RRPV -> 0
        else
            wide[set * numWays + way] = 0;
    }

    /**
     * True when onFill is unconditionally the same MRU-touch as onHit
     * (classical LRU), letting the cache route fills through the
     * non-virtual hit path too.
     */
    bool fillIsMruTouch() const { return mruFill; }

    /**
     * Checkpoint the per-set state (packed words or wide bytes).
     * Policies with extra mutable state (DRRIP's PSEL + RNG, 5P's RNG
     * and counters) extend this; geometry/config fields are
     * rebuilt by reset() at construction and are not serialized.
     */
    virtual void
    serialize(Serializer &s)
    {
        s.valueVec(words);
        s.valueVec(wide);
    }

  protected:
    /** The two hit-update flavors shared by all concrete policies. */
    enum class HitUpdate : std::uint8_t
    {
        StackMru,  ///< promote the way to the MRU recency position
        RrpvClear, ///< zero the way's re-reference prediction value
    };

    explicit ReplacementPolicy(HitUpdate hit) : hitUpdate(hit) {}

    /** Widest geometry whose per-set state fits one packed word. */
    static constexpr unsigned maxPackedWays = 16;
    static constexpr std::uint64_t nibbleMask = 0xf;
    /** 1 in every nibble: per-nibble broadcast/increment constant. */
    static constexpr std::uint64_t nibbleOnes = 0x1111111111111111ull;

    /**
     * Size the flat state for a sets x ways array. Chooses the packed
     * one-word-per-set layout when ways <= maxPackedWays (the caller
     * then fills `words` with its per-policy init word), else the flat
     * byte array filled with @p wide_init.
     */
    void
    resetFlatState(std::size_t sets, unsigned ways, std::uint8_t wide_init)
    {
        numWays = ways;
        packed = ways <= maxPackedWays;
        if (packed) {
            words.clear();
            wide.clear();
        } else {
            wide.assign(sets * ways, wide_init);
            words.clear();
        }
    }

    /** Mask covering the low numWays nibbles of a packed word. */
    std::uint64_t
    packedWaysMask() const
    {
        return numWays == maxPackedWays
                   ? ~0ull
                   : (1ull << (4u * numWays)) - 1;
    }

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
        if (packed) {
            std::uint64_t &word = words[set];
            const unsigned p = findNibble(word, way);
            assert(p < numWays && "way not present in recency stack");
            const std::uint64_t low = word & ((1ull << (4u * p)) - 1);
            // Keep nibbles above p (double shift avoids UB at p == 15).
            word = (word & ((~0ull << (4u * p)) << 4)) | (low << 4) | way;
        } else {
            std::uint8_t *stack = &wide[set * numWays];
            unsigned p = 0;
            while (stack[p] != way) {
                ++p;
                assert(p < numWays && "way not present in recency stack");
            }
            for (; p > 0; --p)
                stack[p] = stack[p - 1];
            stack[0] = static_cast<std::uint8_t>(way);
        }
    }

    /** Demote @p way to the LRU position (recency-stack policies). */
    void
    touchLru(std::size_t set, unsigned way)
    {
        if (packed) {
            std::uint64_t &word = words[set];
            const unsigned p = findNibble(word, way);
            assert(p < numWays && "way not present in recency stack");
            const std::uint64_t low = word & ((1ull << (4u * p)) - 1);
            const std::uint64_t mid =
                ((word >> (4u * p)) >> 4) &
                ((1ull << (4u * (numWays - 1 - p))) - 1);
            word = (word & ~packedWaysMask()) |
                   (static_cast<std::uint64_t>(way)
                    << (4u * (numWays - 1))) |
                   (mid << (4u * p)) | low;
        } else {
            std::uint8_t *stack = &wide[set * numWays];
            unsigned p = 0;
            while (stack[p] != way) {
                ++p;
                assert(p < numWays && "way not present in recency stack");
            }
            for (; p + 1 < numWays; ++p)
                stack[p] = stack[p + 1];
            stack[numWays - 1] = static_cast<std::uint8_t>(way);
        }
    }

    HitUpdate hitUpdate;
    bool mruFill = false; ///< set by LruPolicy; see fillIsMruTouch()
    bool packed = true;
    unsigned numWays = 0;
    /**
     * Packed layout: one word per set. Recency-stack policies store the
     * way at recency position p in nibble p (position 0 = MRU); unused
     * high nibbles hold 0xF. DRRIP stores way w's RRPV in nibble w.
     */
    std::vector<std::uint64_t> words;
    /** Wide layout (> maxPackedWays): sets*ways entries, same meaning. */
    std::vector<std::uint8_t> wide;
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
        if (packed)
            return static_cast<unsigned>(
                (words[set] >> (4u * (numWays - 1))) & nibbleMask);
        return wide[set * numWays + numWays - 1];
    }
};

/** Classical LRU: always insert at MRU. */
class LruPolicy final : public StackPolicy
{
  public:
    LruPolicy() { mruFill = true; }

    void onFill(std::size_t set, unsigned way, const FillInfo &info) override;
};

} // namespace bop

#endif // BOP_CACHE_REPLACEMENT_HH
