#include "cache/replacement.hh"

#include <cassert>
#include <string>

namespace bop
{

namespace
{

/** Nibble p holds p: the identity recency permutation for 16 ways. */
constexpr std::uint64_t identityNibbles = 0xfedcba9876543210ull;

} // namespace

void
ReplacementPolicy::serialize(Serializer &s)
{
    s.valueVecExact(words, "replacement state set words");
    for (const std::uint64_t word : words) {
        if (s.loading() && ((word | waysMask()) != ~0ull || !validWord(word)))
            s.fail("replacement word is not a state the policy can reach");
    }
    // Element count of a retired byte-array layout for caches wider
    // than 16 ways; kept as a written zero so checkpoint bytes stay
    // the same.
    std::uint64_t retired = 0;
    s.value(retired);
    if (s.loading() && retired != 0)
        s.fail("replacement state for more than 16 ways");
}

void
StackPolicy::reset(std::size_t sets, unsigned ways)
{
    // Identity order: way w at position w.
    resetWords(sets, ways, identityNibbles);
}

bool
StackPolicy::validWord(std::uint64_t word) const
{
    std::uint32_t seen = 0;
    for (unsigned p = 0; p < numWays; ++p)
        seen |= 1u << ((word >> (4u * p)) & nibbleMask);
    return seen == (1u << numWays) - 1;
}

unsigned
StackPolicy::victim(std::size_t set)
{
    return StackPolicy::victimPeek(set);
}

unsigned
StackPolicy::victimPeek(std::size_t set) const
{
    return lruWay(set);
}

unsigned
StackPolicy::positionOf(std::size_t set, unsigned way) const
{
    const unsigned p = findNibble(words[set], way);
    assert(p < numWays && "way not present in recency stack");
    return p;
}

void
LruPolicy::onFill(std::size_t set, unsigned way, const FillInfo &info)
{
    (void)info;
    touchMru(set, way);
}

} // namespace bop
