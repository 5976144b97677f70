#include "cache/drrip.hh"

namespace bop
{

void
DrripPolicy::reset(std::size_t sets, unsigned ways)
{
    resetWords(sets, ways, nibbleOnes * rrpvMax);
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

bool
DrripPolicy::validWord(std::uint64_t word) const
{
    // rrpvMax is 3, so an RRPV above it has bit 2 or 3 of its nibble set.
    static_assert(rrpvMax == 3);
    return (word & waysMask() & (nibbleOnes * 0xc)) == 0;
}

unsigned
DrripPolicy::victim(std::size_t set)
{
    // SRRIP ages every way until one reaches the distant RRPV and
    // evicts the lowest-index such way. That way is the lowest-index
    // one at the current maximum, and the aging adds the same
    // rrpvMax - max to every way, which no in-range nibble carries out
    // of (each is at most max). Filler nibbles get no add.
    const unsigned way = DrripPolicy::victimPeek(set);
    words[set] += (nibbleOnes * (rrpvMax - rrpvOf(set, way))) & waysMask();
    return way;
}

unsigned
DrripPolicy::victimPeek(std::size_t set) const
{
    // Lowest-index way at the highest RRPV, one level at a time from
    // rrpvMax down; filler nibbles (0xF) match no level.
    for (unsigned rrpv = rrpvMax; rrpv > 0; --rrpv) {
        const unsigned way = findNibble(words[set], rrpv);
        if (way < numWays)
            return way;
    }
    return 0; // every RRPV is 0
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
