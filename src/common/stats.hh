/**
 * @file
 * Lightweight statistics utilities: geometric mean helpers and the flat
 * counter bundle each simulation run produces.
 */

#ifndef BOP_COMMON_STATS_HH
#define BOP_COMMON_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/serializer.hh"

namespace bop
{

/** Geometric mean of a vector of strictly positive values. */
double geomean(const std::vector<double> &values);

/** Arithmetic mean. */
double mean(const std::vector<double> &values);

/**
 * The RunStats counter table: one X(type, name, cumulative) row per
 * counter, in declaration order, which is also the checkpoint byte
 * order of RunStats::serialize(). `cumulative` rows are running counts
 * that deltaStats() subtracts; the others are end-of-run state it
 * keeps. The struct, its serialisation and deltaStats() all expand
 * this one list, so a counter cannot be added to one and missed by
 * another.
 */
#define BOP_RUN_STATS_COUNTERS(X)                                          \
    /* progress */                                                        \
    X(std::uint64_t, cycles, true)       /* measured cycles */             \
    X(std::uint64_t, instructions, true) /* retired on core 0 */           \
    /* DL1 */                                                             \
    X(std::uint64_t, dl1Accesses, true)                                    \
    X(std::uint64_t, dl1Misses, true)                                      \
    X(std::uint64_t, dl1PrefIssued, true)  /* L1 stride prefetches */      \
    X(std::uint64_t, dl1PrefDropTlb, true) /* dropped on TLB2 miss */      \
    /* L2 */                                                              \
    X(std::uint64_t, l2Accesses, true) /* core-side read accesses */       \
    X(std::uint64_t, l2Misses, true)                                       \
    X(std::uint64_t, l2PrefetchedHits, true) /* hits, prefetch bit set */  \
    X(std::uint64_t, l2PrefIssued, true)     /* L2 prefetches issued */    \
    X(std::uint64_t, l2PrefDropped, true)    /* cancelled / filtered */    \
    X(std::uint64_t, l2PrefFills, true)      /* prefetched lines filled */ \
    X(std::uint64_t, l2LatePromotions, true) /* hits on in-flight pf */    \
    X(std::uint64_t, l2PrefUselessEvicted, true) /* evicted unused */      \
    /* L3; l3ChannelStalls: cycles a demand waited on one channel's     \
       read-queue congestion, zero on <= 2-channel topologies */          \
    X(std::uint64_t, l3Accesses, true)                                     \
    X(std::uint64_t, l3Misses, true)                                       \
    X(std::uint64_t, l3ChannelStalls, true)                                \
    /* TLB */                                                             \
    X(std::uint64_t, dtlb1Misses, true)                                    \
    X(std::uint64_t, tlb2Misses, true)                                     \
    /* branches */                                                        \
    X(std::uint64_t, branches, true)                                       \
    X(std::uint64_t, branchMispredicts, true)                              \
    /* DRAM (whole chip, all cores) */                                    \
    X(std::uint64_t, dramReads, true)                                      \
    X(std::uint64_t, dramWrites, true)                                     \
    X(std::uint64_t, dramRowHits, true)                                    \
    X(std::uint64_t, dramRowMisses, true)                                  \
    /* BO on core 0: end-of-run state of the learner */                   \
    X(std::uint64_t, boLearningPhases, false)                              \
    X(std::uint64_t, boPrefetchOffPhases, false)                           \
    X(int, boFinalOffset, false)                                           \
    X(int, boFinalScore, false)

/**
 * Counters gathered during one simulation run, from the point of view of
 * core 0 (the paper reports all numbers for core 0 only).
 */
struct RunStats
{
#define BOP_DECLARE_COUNTER(type, name, cumulative) type name = 0;
    BOP_RUN_STATS_COUNTERS(BOP_DECLARE_COUNTER)
#undef BOP_DECLARE_COUNTER

    /** Field-wise equality (the fast-forward equivalence gate compares
     *  whole runs; every counter above participates). */
    bool operator==(const RunStats &) const = default;

    /** Checkpoint every counter, in declaration order. */
    void
    serialize(Serializer &s)
    {
#define BOP_SERIALIZE_COUNTER(type, name, cumulative) s.value(name);
        BOP_RUN_STATS_COUNTERS(BOP_SERIALIZE_COUNTER)
#undef BOP_SERIALIZE_COUNTER
    }

    /** Instructions per cycle for the measured window. */
    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    /** DRAM accesses (read + write) per 1000 instructions (Fig. 13). */
    double
    dramPer1kInstr() const
    {
        if (!instructions)
            return 0.0;
        return 1000.0 *
               static_cast<double>(dramReads + dramWrites) /
               static_cast<double>(instructions);
    }

    /** L2 misses per 1000 instructions. */
    double
    l2Mpki() const
    {
        if (!instructions)
            return 0.0;
        return 1000.0 * static_cast<double>(l2Misses) /
               static_cast<double>(instructions);
    }

    // -- L2 prefetch quality metrics (Sec. 6 discussion) ------------------
    //
    // A prefetched line is *useful* if the core requested it: either it
    // was already in the cache with its prefetch bit set when the demand
    // arrived (timely: l2PrefetchedHits — the bit is cleared on first
    // use, so each line counts once), or the demand caught it still in
    // flight (late: l2LatePromotions). It is *useless* if it was evicted
    // with its prefetch bit still set. Demand misses that had to go all
    // the way to the L3/DRAM themselves are l2Misses minus the late
    // promotions hidden inside them.

    /** Useful prefetches: timely + late. */
    std::uint64_t
    l2PrefUseful() const
    {
        return l2PrefetchedHits + l2LatePromotions;
    }

    /**
     * Prefetch coverage: fraction of would-be demand misses served
     * (fully or partially) by a prefetch. The paper quotes next-line
     * coverage of ~75% on 433/470 and >90% on 459/462 (Sec. 6).
     */
    double
    prefetchCoverage() const
    {
        const std::uint64_t full_misses = l2Misses - l2LatePromotions;
        const std::uint64_t denom = l2PrefUseful() + full_misses;
        return denom ? static_cast<double>(l2PrefUseful()) /
                           static_cast<double>(denom)
                     : 0.0;
    }

    /** Fraction of prefetched fills that were ever used. */
    double
    prefetchAccuracy() const
    {
        const std::uint64_t denom = l2PrefUseful() + l2PrefUselessEvicted;
        return denom ? static_cast<double>(l2PrefUseful()) /
                           static_cast<double>(denom)
                     : 0.0;
    }

    /** Fraction of useful prefetches that were timely (not late). */
    double
    prefetchTimeliness() const
    {
        const std::uint64_t useful = l2PrefUseful();
        return useful ? static_cast<double>(l2PrefetchedHits) /
                            static_cast<double>(useful)
                      : 0.0;
    }
};

} // namespace bop

#endif // BOP_COMMON_STATS_HH
