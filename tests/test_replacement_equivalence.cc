/**
 * @file
 * Randomized equivalence tests for the flat-state replacement engine.
 *
 * The one-word-per-set recency stacks / RRPV arrays must behave exactly
 * like the naive data structures they replaced: per-set vector recency stacks
 * and nested RRPV vectors. Each test drives the real policy and a
 * reference model (a transliteration of the pre-flat implementation)
 * through identical randomized fill/hit/victim sequences — with
 * identically seeded RNGs where the policy is stochastic — and asserts
 * identical victims, peeks and recency positions throughout.
 *
 * A second group does the same at the tag-array level: the
 * structure-of-arrays SetAssocCache against a naive array-of-structs
 * model, over random access/insert/invalidate sequences.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache.hh"
#include "cache/drrip.hh"
#include "cache/policy_5p.hh"
#include "cache/replacement.hh"
#include "common/prop_counter.hh"
#include "common/rng.hh"

namespace bop
{
namespace
{

// ---------------------------------------------------------------------------
// Reference models: the pre-flat (naive) implementations.
// ---------------------------------------------------------------------------

/** Naive per-set recency stacks (vector-of-vectors, find/erase/insert). */
class RefStack
{
  public:
    void
    reset(std::size_t sets, unsigned ways)
    {
        numWays = ways;
        stacks.assign(sets, {});
        for (auto &stack : stacks) {
            stack.resize(ways);
            for (unsigned w = 0; w < ways; ++w)
                stack[w] = static_cast<std::uint8_t>(w);
        }
    }

    unsigned victim(std::size_t set) const { return stacks[set].back(); }

    unsigned
    positionOf(std::size_t set, unsigned way) const
    {
        const auto &stack = stacks[set];
        for (unsigned p = 0; p < stack.size(); ++p) {
            if (stack[p] == way)
                return p;
        }
        ADD_FAILURE() << "way " << way << " missing from reference stack";
        return 0;
    }

    void
    touchMru(std::size_t set, unsigned way)
    {
        auto &stack = stacks[set];
        stack.erase(std::find(stack.begin(), stack.end(),
                              static_cast<std::uint8_t>(way)));
        stack.insert(stack.begin(), static_cast<std::uint8_t>(way));
    }

    void
    touchLru(std::size_t set, unsigned way)
    {
        auto &stack = stacks[set];
        stack.erase(std::find(stack.begin(), stack.end(),
                              static_cast<std::uint8_t>(way)));
        stack.push_back(static_cast<std::uint8_t>(way));
    }

    unsigned numWays = 0;
    std::vector<std::vector<std::uint8_t>> stacks;
};

/** Reference LRU on the naive stack. */
struct RefLru : RefStack
{
    void onHit(std::size_t set, unsigned way) { touchMru(set, way); }
    void onFill(std::size_t set, unsigned way, const FillInfo &)
    {
        touchMru(set, way);
    }
};

/** Reference 5P: the full selection logic on the naive stack. */
struct Ref5P : RefStack
{
    explicit Ref5P(std::uint64_t seed, int num_cores = 4,
                   std::size_t constituency = 128)
        : rng(seed),
          constituencySize(constituency),
          policyCounters(static_cast<std::size_t>(numInsertionPolicies), 12),
          coreMissCounters(static_cast<std::size_t>(num_cores), 12)
    {
    }

    void
    reset(std::size_t sets, unsigned ways)
    {
        RefStack::reset(sets, ways);
        policyCounters.reset();
        coreMissCounters.reset();
    }

    int
    leaderPolicyOf(std::size_t set) const
    {
        const std::size_t pos = set % constituencySize;
        for (int i = 0; i < numInsertionPolicies; ++i) {
            if (pos == static_cast<std::size_t>(i) *
                           (constituencySize / numInsertionPolicies))
                return i;
        }
        return -1;
    }

    bool
    coreHasLowMissRate(CoreId core) const
    {
        return coreMissCounters.value(static_cast<std::size_t>(core)) <
               coreMissCounters.maxValue() / 4;
    }

    void
    applyInsertion(int ip, std::size_t set, unsigned way,
                   const FillInfo &info)
    {
        bool mru = false;
        switch (static_cast<InsertionPolicy>(ip)) {
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

    void onHit(std::size_t set, unsigned way) { touchMru(set, way); }

    void
    onFill(std::size_t set, unsigned way, const FillInfo &info)
    {
        coreMissCounters.increment(static_cast<std::size_t>(info.core));
        const int leader = leaderPolicyOf(set);
        if (leader >= 0) {
            if (info.demand)
                policyCounters.increment(static_cast<std::size_t>(leader));
            applyInsertion(leader, set, way, info);
        } else {
            applyInsertion(static_cast<int>(policyCounters.argMin()), set,
                           way, info);
        }
    }

    Rng rng;
    std::size_t constituencySize;
    PropCounterGroup policyCounters;
    PropCounterGroup coreMissCounters;
};

/** Reference DRRIP on nested RRPV vectors. */
struct RefDrrip
{
    explicit RefDrrip(std::uint64_t seed, std::size_t constituency = 64)
        : rng(seed), constituencySize(constituency)
    {
    }

    static constexpr std::uint8_t rrpvMax = 3;
    static constexpr int pselMax = 1023;

    void
    reset(std::size_t sets, unsigned ways)
    {
        rrpv.assign(sets, std::vector<std::uint8_t>(ways, rrpvMax));
        psel = pselMax / 2;
    }

    bool
    isSrripLeader(std::size_t set) const
    {
        return (set % constituencySize) == 0;
    }

    bool
    isBrripLeader(std::size_t set) const
    {
        return (set % constituencySize) == constituencySize / 2;
    }

    unsigned
    victim(std::size_t set)
    {
        auto &vals = rrpv[set];
        for (;;) {
            for (unsigned w = 0; w < vals.size(); ++w) {
                if (vals[w] == rrpvMax)
                    return w;
            }
            for (auto &v : vals)
                ++v;
        }
    }

    unsigned
    victimPeek(std::size_t set) const
    {
        const auto &vals = rrpv[set];
        unsigned best = 0;
        for (unsigned w = 1; w < vals.size(); ++w) {
            if (vals[w] > vals[best])
                best = w;
        }
        return best;
    }

    void onHit(std::size_t set, unsigned way) { rrpv[set][way] = 0; }

    void
    onFill(std::size_t set, unsigned way, const FillInfo &info)
    {
        if (info.demand) {
            if (isSrripLeader(set) && psel < pselMax)
                ++psel;
            else if (isBrripLeader(set) && psel > 0)
                --psel;
        }
        bool brrip;
        if (isSrripLeader(set))
            brrip = false;
        else if (isBrripLeader(set))
            brrip = true;
        else
            brrip = psel > pselMax / 2;
        if (brrip)
            rrpv[set][way] = (rng.below(32) == 0) ? rrpvMax - 1 : rrpvMax;
        else
            rrpv[set][way] = rrpvMax - 1;
    }

    Rng rng;
    std::size_t constituencySize;
    int psel = pselMax / 2;
    std::vector<std::vector<std::uint8_t>> rrpv;
};

// ---------------------------------------------------------------------------
// Randomized policy-level equivalence drivers.
// ---------------------------------------------------------------------------

/**
 * Drive @p real and @p ref through an identical random op sequence and
 * compare victims and (for stack policies) every recency position.
 */
template <typename Real, typename Ref>
void
drivePolicies(Real &real, Ref &ref, std::size_t sets, unsigned ways,
              int iterations, std::uint64_t op_seed, bool check_positions)
{
    real.reset(sets, ways);
    ref.reset(sets, ways);
    Rng ops(op_seed);

    for (int i = 0; i < iterations; ++i) {
        const std::size_t set = ops.below(sets);
        const unsigned way = static_cast<unsigned>(ops.below(ways));
        const std::uint64_t op = ops.below(100);

        if (op < 45) {
            const FillInfo info{static_cast<CoreId>(ops.below(4)),
                                ops.below(2) == 0};
            real.onFill(set, way, info);
            ref.onFill(set, way, info);
        } else if (op < 70) {
            real.onHit(set, way);
            ref.onHit(set, way);
        } else if (op < 85) {
            ASSERT_EQ(real.victim(set), ref.victim(set))
                << "victim diverged at op " << i << " set " << set;
        } else {
            ASSERT_EQ(real.victimPeek(set), ref.victimPeek(set))
                << "victimPeek diverged at op " << i << " set " << set;
        }

        if constexpr (requires {
                          real.positionOf(set, way);
                          ref.positionOf(set, way);
                      }) {
            if (check_positions && i % 7 == 0) {
                for (unsigned w = 0; w < ways; ++w) {
                    ASSERT_EQ(real.positionOf(set, w),
                              ref.positionOf(set, w))
                        << "position of way " << w << " diverged at op "
                        << i << " set " << set;
                }
            }
        }
    }
}

/** RefStack exposes victim() only; adapt to the driver's interface. */
template <typename RefT>
struct PeekAdapter : RefT
{
    using RefT::RefT;
    unsigned victimPeek(std::size_t set) const { return this->victim(set); }
};

// Geometries up to the 16-way limit SetAssocCache enforces, including
// the 16-way boundary where the filler-nibble trick has no slack.
struct Geometry
{
    std::size_t sets;
    unsigned ways;
};

const Geometry geometries[] = {
    {256, 2}, {256, 4}, {128, 8}, {64, 12}, {256, 15}, {256, 16},
};

TEST(ReplacementEquivalence, LruMatchesNaiveStacks)
{
    for (const auto &g : geometries) {
        LruPolicy real;
        PeekAdapter<RefLru> ref;
        drivePolicies(real, ref, g.sets, g.ways, 20000,
                      0xabc0 + g.ways, true);
    }
}

TEST(ReplacementEquivalence, Policy5PMatchesNaiveStacksWithSameRngStream)
{
    for (const auto &g : geometries) {
        Policy5P real(0x5105);
        PeekAdapter<Ref5P> ref(0x5105);
        drivePolicies(real, ref, g.sets, g.ways, 20000,
                      0xabc2 + g.ways, true);
    }
}

TEST(ReplacementEquivalence, DrripMatchesNaiveRrpvWithSameRngStream)
{
    for (const auto &g : geometries) {
        DrripPolicy real(0xdead);
        RefDrrip ref(0xdead);
        drivePolicies(real, ref, g.sets, g.ways, 20000,
                      0xabc3 + g.ways, false);
    }
}

TEST(ReplacementEquivalence, SurvivesRepeatedResets)
{
    LruPolicy real;
    PeekAdapter<RefLru> ref;
    // Reset between geometry changes, narrower and wider again.
    drivePolicies(real, ref, 64, 16, 3000, 0x11, true);
    drivePolicies(real, ref, 32, 3, 3000, 0x22, true);
    drivePolicies(real, ref, 64, 8, 3000, 0x33, true);
}

// ---------------------------------------------------------------------------
// Tag-array (SetAssocCache) equivalence against a naive AoS model.
// ---------------------------------------------------------------------------

/** One line of the naive reference tag array. */
struct RefLine
{
    bool valid = false;
    LineAddr line = 0;
    bool dirty = false;
    bool prefetchBit = false;
    CoreId fillCore = 0;
};

/**
 * Naive array-of-structs tag array (a transliteration of the pre-SoA
 * SetAssocCache), parameterized on a caller-owned replacement policy.
 */
class RefTagArray
{
  public:
    RefTagArray(std::size_t sets_, unsigned ways_,
                ReplacementPolicy &policy_)
        : sets(sets_), ways(ways_), policy(policy_)
    {
        lines.assign(sets * ways, {});
        policy.reset(sets, ways);
    }

    std::size_t setOf(LineAddr line) const { return line & (sets - 1); }

    RefLine *
    lookup(LineAddr line, unsigned &way_out)
    {
        const std::size_t set = setOf(line);
        for (unsigned w = 0; w < ways; ++w) {
            RefLine &ls = lines[set * ways + w];
            if (ls.valid && ls.line == line) {
                way_out = w;
                return &ls;
            }
        }
        return nullptr;
    }

    CacheAccessResult
    access(LineAddr line, bool is_write, bool from_core_side)
    {
        CacheAccessResult res;
        unsigned way = 0;
        RefLine *ls = lookup(line, way);
        if (!ls)
            return res;
        res.hit = true;
        res.way = way;
        if (from_core_side) {
            res.prefetchedHit = ls->prefetchBit;
            ls->prefetchBit = false;
        }
        if (is_write)
            ls->dirty = true;
        policy.onHit(setOf(line), way);
        return res;
    }

    bool
    probe(LineAddr line) const
    {
        unsigned way = 0;
        return const_cast<RefTagArray *>(this)->lookup(line, way) !=
               nullptr;
    }

    CacheVictim
    insert(LineAddr line, const CacheFill &fill)
    {
        const std::size_t set = setOf(line);
        CacheVictim victim;
        unsigned way = ways;
        for (unsigned w = 0; w < ways; ++w) {
            if (!lines[set * ways + w].valid) {
                way = w;
                break;
            }
        }
        if (way == ways) {
            way = policy.victim(set);
            const RefLine &old = lines[set * ways + way];
            victim.valid = true;
            victim.line = old.line;
            victim.dirty = old.dirty;
            victim.core = old.fillCore;
            victim.prefetchBit = old.prefetchBit;
        }
        RefLine &ls = lines[set * ways + way];
        ls.valid = true;
        ls.line = line;
        ls.dirty = fill.markDirty;
        ls.prefetchBit = fill.markPrefetch;
        ls.fillCore = fill.core;
        policy.onFill(set, way, FillInfo{fill.core, fill.demand});
        return victim;
    }

    CacheVictim
    peekVictim(LineAddr line) const
    {
        const std::size_t set = setOf(line);
        CacheVictim victim;
        for (unsigned w = 0; w < ways; ++w) {
            if (!lines[set * ways + w].valid)
                return victim;
        }
        const unsigned way = policy.victimPeek(set);
        const RefLine &old = lines[set * ways + way];
        victim.valid = true;
        victim.line = old.line;
        victim.dirty = old.dirty;
        victim.core = old.fillCore;
        victim.prefetchBit = old.prefetchBit;
        return victim;
    }

    bool
    invalidate(LineAddr line)
    {
        unsigned way = 0;
        RefLine *ls = lookup(line, way);
        if (!ls)
            return false;
        ls->valid = false;
        ls->dirty = false;
        ls->prefetchBit = false;
        return true;
    }

  private:
    std::size_t sets;
    unsigned ways;
    ReplacementPolicy &policy;
    std::vector<RefLine> lines;
};

void
expectVictimsEqual(const CacheVictim &a, const CacheVictim &b, int op)
{
    ASSERT_EQ(a.valid, b.valid) << "victim.valid diverged at op " << op;
    ASSERT_EQ(a.line, b.line) << "victim.line diverged at op " << op;
    ASSERT_EQ(a.dirty, b.dirty) << "victim.dirty diverged at op " << op;
    ASSERT_EQ(a.core, b.core) << "victim.core diverged at op " << op;
    ASSERT_EQ(a.prefetchBit, b.prefetchBit)
        << "victim.prefetchBit diverged at op " << op;
}

/**
 * Drive the SoA cache and the naive model (each owning an identically
 * seeded policy instance) through identical access/insert/invalidate
 * sequences.
 */
void
driveCacheEquivalence(std::unique_ptr<ReplacementPolicy> real_policy,
                      std::unique_ptr<ReplacementPolicy> ref_policy,
                      std::uint64_t op_seed)
{
    constexpr std::size_t sets = 64;
    constexpr unsigned ways = 8;
    SetAssocCache real("equiv", sets * ways * lineBytes, ways,
                       std::move(real_policy));
    ReplacementPolicy &refpol = *ref_policy;
    RefTagArray ref(sets, ways, refpol);

    Rng ops(op_seed);
    // Lines from a space ~4x the cache keeps sets contended without
    // making every access a miss.
    const LineAddr space = sets * ways * 4;

    for (int i = 0; i < 40000; ++i) {
        const LineAddr line = ops.below(space);
        const std::uint64_t op = ops.below(100);
        if (op < 40) {
            const bool write = ops.below(4) == 0;
            const bool core_side = ops.below(8) != 0;
            const CacheAccessResult a = real.access(line, write, core_side);
            const CacheAccessResult b = ref.access(line, write, core_side);
            ASSERT_EQ(a.hit, b.hit) << "hit diverged at op " << i;
            ASSERT_EQ(a.way, b.way) << "way diverged at op " << i;
            ASSERT_EQ(a.prefetchedHit, b.prefetchedHit)
                << "prefetchedHit diverged at op " << i;
        } else if (op < 75) {
            ASSERT_EQ(real.probe(line), ref.probe(line));
            if (!real.probe(line)) {
                CacheFill fill;
                fill.core = static_cast<CoreId>(ops.below(4));
                fill.demand = ops.below(2) == 0;
                fill.markPrefetch = ops.below(3) == 0;
                fill.markDirty = ops.below(5) == 0;
                expectVictimsEqual(real.insert(line, fill),
                                   ref.insert(line, fill), i);
            }
        } else if (op < 85) {
            CacheVictim a = real.peekVictim(line);
            CacheVictim b = ref.peekVictim(line);
            expectVictimsEqual(a, b, i);
        } else if (op < 92) {
            ASSERT_EQ(real.invalidate(line), ref.invalidate(line))
                << "invalidate diverged at op " << i;
        } else {
            const auto ls = real.findLine(line);
            ASSERT_EQ(ls.has_value(), ref.probe(line))
                << "findLine presence diverged at op " << i;
        }
    }
}

TEST(CacheEquivalence, SoaMatchesNaiveAosWithLru)
{
    driveCacheEquivalence(std::make_unique<LruPolicy>(),
                          std::make_unique<LruPolicy>(), 0xcafe01);
}

TEST(CacheEquivalence, SoaMatchesNaiveAosWith5P)
{
    driveCacheEquivalence(std::make_unique<Policy5P>(0x5105),
                          std::make_unique<Policy5P>(0x5105), 0xcafe03);
}

TEST(CacheEquivalence, SoaMatchesNaiveAosWithDrrip)
{
    driveCacheEquivalence(std::make_unique<DrripPolicy>(0xdead),
                          std::make_unique<DrripPolicy>(0xdead), 0xcafe04);
}

} // namespace
} // namespace bop
