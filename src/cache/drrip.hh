/**
 * @file
 * DRRIP replacement [Jaleel et al., ISCA'10], used by the paper's Fig. 3
 * comparison against the 5P baseline policy.
 *
 * 2-bit re-reference prediction values (RRPV). SRRIP inserts at RRPV=2,
 * BRRIP inserts at RRPV=3 except with probability 1/32 at RRPV=2. Set
 * dueling between SRRIP and BRRIP leader sets drives a PSEL counter that
 * selects the policy used by follower sets.
 *
 * RRPVs live in the base-class state: one 64-bit word per set, way w's
 * RRPV in nibble w. Hits clear the RRPV through the base class's
 * non-virtual onHit fast path. The victim is the lowest-index way at
 * the highest RRPV, found with one nibble scan per RRPV level, and
 * evicting it ages every way by the distance of that RRPV from the
 * maximum in one add.
 */

#ifndef BOP_CACHE_DRRIP_HH
#define BOP_CACHE_DRRIP_HH

#include <cstdint>
#include <vector>

#include "cache/replacement.hh"
#include "common/rng.hh"

namespace bop
{

/** DRRIP: SRRIP/BRRIP set dueling on 2-bit RRPVs. */
class DrripPolicy final : public ReplacementPolicy
{
  public:
    /**
     * @param seed RNG seed for BRRIP's 1/32 near-insertions
     * @param constituency leader-set spacing (one SRRIP + one BRRIP
     *        leader per @p constituency consecutive sets)
     */
    explicit DrripPolicy(std::uint64_t seed = 0xdead,
                         std::size_t constituency = 64)
        : ReplacementPolicy(HitUpdate::RrpvClear),
          rng(seed),
          constituencySize(constituency)
    {
    }

    void reset(std::size_t sets, unsigned ways) override;
    unsigned victim(std::size_t set) override;
    unsigned victimPeek(std::size_t set) const override;
    void onFill(std::size_t set, unsigned way, const FillInfo &info) override;

    /** Checkpoint RRPVs plus the BRRIP RNG and the duel PSEL. */
    void
    serialize(Serializer &s) override
    {
        ReplacementPolicy::serialize(s);
        rng.serialize(s);
        s.value(psel);
    }

    /** Exposed for tests: current PSEL value. */
    int pselValue() const { return psel; }
    /** Exposed for tests: leader-set classification. */
    bool isSrripLeader(std::size_t set) const;
    bool isBrripLeader(std::size_t set) const;

  private:
    static constexpr std::uint8_t rrpvMax = 3;     // 2-bit RRPV
    static constexpr int pselMax = 1023;           // 10-bit PSEL

    /** Leader-set classification, precomputed per set in reset(). */
    enum LeaderKind : std::uint8_t
    {
        follower = 0,
        srripLeader = 1,
        brripLeader = 2,
    };

    bool useBrrip(std::size_t set) const;

    /** Every in-range RRPV is at most rrpvMax. */
    bool validWord(std::uint64_t word) const override;

    std::uint8_t
    rrpvOf(std::size_t set, unsigned way) const
    {
        return static_cast<std::uint8_t>((words[set] >> (4u * way)) &
                                         nibbleMask);
    }

    void
    setRrpv(std::size_t set, unsigned way, std::uint8_t value)
    {
        words[set] = (words[set] & ~(nibbleMask << (4u * way))) |
                     (static_cast<std::uint64_t>(value) << (4u * way));
    }

    Rng rng;
    std::size_t constituencySize;
    int psel = pselMax / 2;
    /**
     * Flat per-set LeaderKind table: onFill consults the leader status
     * on every insertion, and the two modulo reductions were measurable
     * there.
     */
    std::vector<std::uint8_t> leaderTable;
};

} // namespace bop

#endif // BOP_CACHE_DRRIP_HH
