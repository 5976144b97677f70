/**
 * @file
 * Translation lookaside buffers (Table 1: DTLB1 64 entries, TLB2 512).
 *
 * Trace-driven translation itself is done by VirtualMemory; the TLBs
 * only model the *latency* of translation (and the Sec. 5.5 rule that
 * L1 prefetch requests are dropped on a TLB2 miss). Set-associative
 * with LRU, tracking virtual page numbers.
 */

#ifndef BOP_SIM_TLB_HH
#define BOP_SIM_TLB_HH

#include <cstdint>
#include <vector>

#include "common/serializer.hh"
#include "common/types.hh"

namespace bop
{

/** Set-associative LRU TLB over virtual page numbers. */
class Tlb
{
  public:
    Tlb(std::size_t entries, unsigned ways);

    /** Lookup @p vpn; updates recency on hit. */
    bool lookup(Addr vpn);

    /** Lookup without inserting or updating recency (prefetch probes). */
    bool probe(Addr vpn) const;

    /** Insert @p vpn (no-op if present; refreshes recency). */
    void insert(Addr vpn);

    /** Drop all entries. */
    void flush();

    std::size_t entryCount() const { return vpns.size(); }

    /** Checkpoint tags, recency stamps and the LRU clock. */
    void
    serialize(Serializer &s)
    {
        s.valueVecExact(vpns, "TLB tags");
        s.valueVecExact(stamps, "TLB stamps");
        s.value(clock);
    }

  private:
    /** Sentinel tag for free slots (no virtual page number reaches ~0). */
    static constexpr Addr freeVpn = ~static_cast<Addr>(0);

    std::size_t setOf(Addr vpn) const { return vpn & (numSets - 1); }

    std::size_t numSets;
    unsigned ways;
    // Structure-of-arrays: lookups run on every load, so the tag match
    // scans a flat 8-byte-stride run; the LRU stamps live beside it and
    // are touched only on hit/insert.
    std::vector<Addr> vpns;   ///< freeVpn when the slot is empty
    std::vector<std::uint64_t> stamps;
    std::uint64_t clock = 0;
};

/** Two-level data-TLB hierarchy with fixed miss penalties. */
class TlbHierarchy
{
  public:
    /** Extra cycles for a DTLB1 miss that hits in the TLB2. */
    static constexpr unsigned tlb2Latency = 7;
    /** Extra cycles for a full page walk on TLB2 miss. */
    static constexpr unsigned walkLatency = 50;

    TlbHierarchy()
        : dtlb1(64, 4), tlb2(512, 8)
    {
    }

    /**
     * Translate-for-latency on a demand access: returns the extra
     * cycles spent on translation and updates both TLB levels.
     */
    unsigned demandAccess(Addr vpn, std::uint64_t &dtlb1_misses,
                          std::uint64_t &tlb2_misses);

    /**
     * TLB2 probe for an L1 prefetch request (Sec. 5.5): returns true if
     * the translation is available (DTLB1 or TLB2 hit); on false the
     * prefetch must be dropped. Does not walk.
     */
    bool prefetchProbe(Addr vpn) const;

    Tlb &level1() { return dtlb1; }
    Tlb &level2() { return tlb2; }

    /** Checkpoint both TLB levels. */
    void
    serialize(Serializer &s)
    {
        dtlb1.serialize(s);
        tlb2.serialize(s);
    }

  private:
    Tlb dtlb1;
    Tlb tlb2;
};

} // namespace bop

#endif // BOP_SIM_TLB_HH
