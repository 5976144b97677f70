#include "cache/policy_5p.hh"

#include <cassert>

namespace bop
{

void
Policy5P::reset(std::size_t sets, unsigned ways)
{
    StackPolicy::reset(sets, ways);
    policyCounters.reset();
    coreMissCounters.reset();
    leaderTable.resize(sets);
    for (std::size_t set = 0; set < sets; ++set)
        leaderTable[set] =
            static_cast<std::int8_t>(computeLeaderPolicy(set));
}

int
Policy5P::computeLeaderPolicy(std::size_t set) const
{
    // Spread the five leader sets across the constituency so they do not
    // cluster in one region of the index space.
    const std::size_t pos = set % constituencySize;
    for (int i = 0; i < numInsertionPolicies; ++i) {
        if (pos == static_cast<std::size_t>(i) * (constituencySize /
                                                  numInsertionPolicies))
            return i;
    }
    return -1;
}

int
Policy5P::leaderPolicyOf(std::size_t set) const
{
    assert(set < leaderTable.size() && "set out of range: reset() first");
    return leaderTable[set];
}

InsertionPolicy
Policy5P::followerPolicy() const
{
    return static_cast<InsertionPolicy>(policyCounters.argMin());
}

bool
Policy5P::coreHasLowMissRate(CoreId core) const
{
    const std::uint32_t max_val = coreMissCounters.maxValue();
    return coreMissCounters.value(static_cast<std::size_t>(core)) <
           max_val / 4;
}

void
Policy5P::applyInsertion(InsertionPolicy ip, std::size_t set, unsigned way,
                         const FillInfo &info)
{
    bool mru = false;
    switch (ip) {
      case InsertionPolicy::IP1_Mru:
        mru = true;
        break;
      case InsertionPolicy::IP2_Bip:
        mru = rng.below(32) == 0;
        break;
      case InsertionPolicy::IP3_DemandMru:
        mru = info.demand;
        break;
      case InsertionPolicy::IP4_LowMissCoreMru:
        mru = coreHasLowMissRate(info.core);
        break;
      case InsertionPolicy::IP5_DemandLowMissCoreMru:
        mru = info.demand && coreHasLowMissRate(info.core);
        break;
    }
    if (mru)
        touchMru(set, way);
    else
        touchLru(set, way);
}

void
Policy5P::onFill(std::size_t set, unsigned way, const FillInfo &info)
{
    // Track per-core pressure on the cache: every insertion counts.
    coreMissCounters.increment(static_cast<std::size_t>(info.core));

    const int leader = leaderPolicyOf(set);
    if (leader >= 0) {
        // Leader sets always apply their dedicated policy, and demand
        // misses in them "vote" against that policy.
        if (info.demand)
            policyCounters.increment(static_cast<std::size_t>(leader));
        applyInsertion(static_cast<InsertionPolicy>(leader), set, way, info);
    } else {
        applyInsertion(followerPolicy(), set, way, info);
    }
}

} // namespace bop
