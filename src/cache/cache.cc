#include "cache/cache.hh"

#include <bit>
#include <cassert>
#include <stdexcept>

namespace bop
{

namespace
{

bool
isPowerOfTwo(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

} // namespace

SetAssocCache::SetAssocCache(std::string name_, std::uint64_t size_bytes,
                             unsigned ways_,
                             std::unique_ptr<ReplacementPolicy> policy_)
    : name(std::move(name_)),
      sets(ways_ ? size_bytes / lineBytes / ways_ : 0),
      ways(ways_),
      policy(std::move(policy_))
{
    if (!policy)
        throw std::invalid_argument(name + ": null replacement policy");
    if (ways == 0 || ways > 16)
        throw std::invalid_argument(name + ": way count must be 1..16");
    if (sets == 0 || !isPowerOfTwo(sets))
        throw std::invalid_argument(name + ": set count must be a power "
                                           "of two and non-zero");
    tags.assign(sets * ways, invalidTag);
    dirtyBits.assign(sets * ways, 0);
    prefetchBits.assign(sets * ways, 0);
    fillCores.assign(sets * ways, 0);
    validMask.assign(sets, 0);
    policy->reset(sets, ways);
}

std::uint64_t
SetAssocCache::fullSetMask() const
{
    return (1ull << ways) - 1;
}

unsigned
SetAssocCache::findWay(std::size_t set, LineAddr line) const
{
    const LineAddr *row = &tags[set * ways];
    for (unsigned w = 0; w < ways; ++w) {
        if (row[w] == line)
            return w;
    }
    return ways;
}

CacheAccessResult
SetAssocCache::access(LineAddr line, bool is_write, bool from_core_side)
{
    CacheAccessResult res;
    const std::size_t set = setOf(line);
    const unsigned way = findWay(set, line);
    if (way == ways)
        return res;

    const std::size_t idx = set * ways + way;
    res.hit = true;
    res.way = way;
    if (from_core_side) {
        res.prefetchedHit = prefetchBits[idx] != 0;
        prefetchBits[idx] = 0;
    }
    if (is_write)
        dirtyBits[idx] = 1;
    policy->onHit(set, way);
    return res;
}

bool
SetAssocCache::probe(LineAddr line) const
{
    return findWay(setOf(line), line) != ways;
}

CacheVictim
SetAssocCache::victimAt(std::size_t set, unsigned way) const
{
    const std::size_t idx = set * ways + way;
    CacheVictim victim;
    victim.valid = true;
    victim.line = tags[idx];
    victim.dirty = dirtyBits[idx] != 0;
    victim.core = fillCores[idx];
    victim.prefetchBit = prefetchBits[idx] != 0;
    return victim;
}

CacheVictim
SetAssocCache::insert(LineAddr line, const CacheFill &fill)
{
    assert(!probe(line) && "duplicate insertion: caller must tag-check");
    assert(line != invalidTag && "line address collides with the "
                                 "invalid-tag sentinel");

    const std::size_t set = setOf(line);
    CacheVictim victim;

    // Prefer the first invalid way; otherwise ask the policy for a victim.
    unsigned way;
    const std::uint64_t invalid = ~validMask[set] & fullSetMask();
    if (invalid != 0) {
        way = static_cast<unsigned>(std::countr_zero(invalid));
    } else {
        way = policy->victim(set);
        victim = victimAt(set, way);
    }

    const std::size_t idx = set * ways + way;
    tags[idx] = line;
    dirtyBits[idx] = fill.markDirty ? 1 : 0;
    prefetchBits[idx] = fill.markPrefetch ? 1 : 0;
    fillCores[idx] = fill.core;
    validMask[set] |= 1ull << way;

    policy->onFill(set, way, FillInfo{fill.core, fill.demand});
    return victim;
}

CacheFillResult
SetAssocCache::fill(LineAddr line, const CacheFill &how)
{
    if (!probe(line))
        return {true, insert(line, how)};
    if (how.markDirty)
        access(line, true, false);
    return {};
}

CacheVictim
SetAssocCache::peekVictim(LineAddr line) const
{
    const std::size_t set = setOf(line);
    if (validMask[set] != fullSetMask())
        return {}; // an invalid way will be used: no eviction
    return victimAt(set, policy->victimPeek(set));
}

bool
SetAssocCache::invalidate(LineAddr line)
{
    const std::size_t set = setOf(line);
    const unsigned way = findWay(set, line);
    if (way == ways)
        return false;
    const std::size_t idx = set * ways + way;
    tags[idx] = invalidTag;
    dirtyBits[idx] = 0;
    prefetchBits[idx] = 0;
    validMask[set] &= ~(1ull << way);
    return true;
}

std::optional<CacheLineState>
SetAssocCache::findLine(LineAddr line) const
{
    const std::size_t set = setOf(line);
    const unsigned way = findWay(set, line);
    if (way == ways)
        return std::nullopt;
    const std::size_t idx = set * ways + way;
    CacheLineState ls;
    ls.valid = true;
    ls.line = tags[idx];
    ls.dirty = dirtyBits[idx] != 0;
    ls.prefetchBit = prefetchBits[idx] != 0;
    ls.fillCore = fillCores[idx];
    return ls;
}

void
SetAssocCache::serialize(Serializer &s)
{
    const std::string table = "cache '" + name + "' ";
    s.valueVecExact(tags, table + "tags");
    s.valueVecExact(dirtyBits, table + "dirty bits");
    s.valueVecExact(prefetchBits, table + "prefetch bits");
    s.valueVecExact(fillCores, table + "fill cores");
    if (s.loading()) {
        for (std::size_t set = 0; set < sets; ++set) {
            std::uint64_t mask = 0;
            for (unsigned way = 0; way < ways; ++way) {
                if (tags[set * ways + way] != invalidTag)
                    mask |= 1ull << way;
            }
            validMask[set] = mask;
        }
    }
    policy->serialize(s);
}

} // namespace bop
