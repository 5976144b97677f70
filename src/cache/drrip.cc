#include "cache/drrip.hh"

namespace bop
{

void
DrripPolicy::reset(std::size_t sets, unsigned ways)
{
    resetFlatState(sets, ways, rrpvMax);
    if (packed) {
        // Every in-range nibble at rrpvMax, filler nibbles at 0xF.
        const std::uint64_t init =
            ((nibbleOnes * rrpvMax) & packedWaysMask()) | ~packedWaysMask();
        words.assign(sets, init);
    }
    psel = pselMax / 2;
    leaderTable.resize(sets);
    for (std::size_t set = 0; set < sets; ++set) {
        leaderTable[set] = isSrripLeader(set)   ? srripLeader
                           : isBrripLeader(set) ? brripLeader
                                                : follower;
    }
}

bool
DrripPolicy::isSrripLeader(std::size_t set) const
{
    return (set % constituencySize) == 0;
}

bool
DrripPolicy::isBrripLeader(std::size_t set) const
{
    return (set % constituencySize) == constituencySize / 2;
}

bool
DrripPolicy::useBrrip(std::size_t set) const
{
    const std::uint8_t kind = leaderTable[set];
    if (kind == srripLeader)
        return false;
    if (kind == brripLeader)
        return true;
    // PSEL counts SRRIP-leader misses up, BRRIP-leader misses down; a
    // high PSEL therefore means SRRIP is missing more -> use BRRIP.
    return psel > pselMax / 2;
}

unsigned
DrripPolicy::victim(std::size_t set)
{
    // Evict the lowest-index way at the distant RRPV, aging every way
    // until one saturates. All RRPVs are <= rrpvMax - 1 whenever the
    // aging step runs, so the packed per-nibble add cannot carry.
    if (packed) {
        for (;;) {
            const unsigned w = findNibble(words[set], rrpvMax);
            if (w < numWays)
                return w;
            words[set] += nibbleOnes & packedWaysMask();
        }
    }
    std::uint8_t *vals = &wide[set * numWays];
    for (;;) {
        for (unsigned w = 0; w < numWays; ++w) {
            if (vals[w] == rrpvMax)
                return w;
        }
        for (unsigned w = 0; w < numWays; ++w)
            ++vals[w];
    }
}

unsigned
DrripPolicy::victimPeek(std::size_t set) const
{
    // The increment-until-saturated loop in victim() always evicts the
    // lowest-index way holding the current maximum RRPV.
    unsigned best = 0;
    for (unsigned w = 1; w < numWays; ++w) {
        if (rrpvOf(set, w) > rrpvOf(set, best))
            best = w;
    }
    return best;
}

void
DrripPolicy::onFill(std::size_t set, unsigned way, const FillInfo &info)
{
    // Set dueling feedback: count demand misses in leader sets.
    if (info.demand) {
        const std::uint8_t kind = leaderTable[set];
        if (kind == srripLeader && psel < pselMax)
            ++psel;
        else if (kind == brripLeader && psel > 0)
            --psel;
    }

    const bool brrip = useBrrip(set);
    if (brrip)
        setRrpv(set, way, (rng.below(32) == 0) ? rrpvMax - 1 : rrpvMax);
    else
        setRrpv(set, way, rrpvMax - 1);
}

} // namespace bop
