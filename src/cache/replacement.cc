#include "cache/replacement.hh"

#include <cassert>

namespace bop
{

namespace
{

/** Nibble p holds p: the identity recency permutation for 16 ways. */
constexpr std::uint64_t identityNibbles = 0xfedcba9876543210ull;

} // namespace

void
StackPolicy::reset(std::size_t sets, unsigned ways)
{
    resetFlatState(sets, ways, 0);
    if (packed) {
        // Identity order (way w at position w), filler nibbles at 0xF.
        const std::uint64_t init =
            (identityNibbles & packedWaysMask()) | ~packedWaysMask();
        words.assign(sets, init);
    } else {
        for (std::size_t s = 0; s < sets; ++s)
            for (unsigned w = 0; w < ways; ++w)
                wide[s * ways + w] = static_cast<std::uint8_t>(w);
    }
}

unsigned
StackPolicy::victim(std::size_t set)
{
    return lruWay(set);
}

unsigned
StackPolicy::victimPeek(std::size_t set) const
{
    return lruWay(set);
}

unsigned
StackPolicy::positionOf(std::size_t set, unsigned way) const
{
    if (packed) {
        const unsigned p = findNibble(words[set], way);
        assert(p < numWays && "way not present in recency stack");
        return p;
    }
    const std::uint8_t *stack = &wide[set * numWays];
    for (unsigned p = 0; p < numWays; ++p) {
        if (stack[p] == way)
            return p;
    }
    assert(false && "way not present in recency stack");
    return 0;
}

void
LruPolicy::onFill(std::size_t set, unsigned way, const FillInfo &info)
{
    (void)info;
    touchMru(set, way);
}

} // namespace bop
