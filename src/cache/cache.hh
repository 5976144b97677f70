/**
 * @file
 * Generic set-associative cache tag array with prefetch bits.
 *
 * Only tags and per-line metadata are modeled (trace-driven simulation
 * carries no data values). Each line has a dirty bit and a prefetch bit:
 * the prefetch bit is set when a prefetched line is filled and reset the
 * first time the line is requested from the core side (paper Sec. 5.6),
 * which is how "prefetched hits" are recognised as prefetcher trigger
 * events and how useless prefetches are measured.
 *
 * The tag array is stored structure-of-arrays: lookups scan one
 * contiguous 8-byte-stride `tags` run per set (invalid ways hold a
 * sentinel tag no simulated line address can equal, so the scan is a
 * single compare per way), while the dirty/prefetch bits and fill-core
 * ids live in parallel flat arrays touched only on a hit or fill.
 * Validity is one bitmask word per set, so "first invalid way" and
 * "set full" are a mask op instead of a scan.
 */

#ifndef BOP_CACHE_CACHE_HH
#define BOP_CACHE_CACHE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/replacement.hh"
#include "common/types.hh"

namespace bop
{

/** Snapshot of one line's tag-array state (findLine result). */
struct CacheLineState
{
    bool valid = false;
    LineAddr line = 0;      ///< full line address (tag + index)
    bool dirty = false;
    bool prefetchBit = false;
    CoreId fillCore = 0;    ///< core that caused the fill
};

/** Outcome of a cache lookup. */
struct CacheAccessResult
{
    bool hit = false;
    bool prefetchedHit = false; ///< hit on a line whose prefetch bit was set
    unsigned way = 0;
};

/** Block evicted by an insertion (for writeback generation). */
struct CacheVictim
{
    bool valid = false;     ///< false when an invalid way was used
    LineAddr line = 0;
    bool dirty = false;
    CoreId core = 0;        ///< core that had filled the victim
    /**
     * The victim's prefetch bit was still set, i.e. the line was
     * prefetched but never requested by the core before eviction — a
     * useless prefetch (the measurement next-line prefetching's
     * prefetch bits were introduced for, Sec. 2 [33]).
     */
    bool prefetchBit = false;
};

/** Metadata for inserting a block. */
struct CacheFill
{
    CoreId core = 0;
    bool demand = true;        ///< demand fill (vs prefetch fill)
    bool markPrefetch = false; ///< set the line's prefetch bit
    bool markDirty = false;    ///< e.g. writeback fills
};

/** Set-associative, write-back, non-inclusive cache tag array. */
class SetAssocCache
{
  public:
    /**
     * @param name        debug name
     * @param size_bytes  total capacity; must be sets*ways*64
     * @param ways        associativity (1..16: one replacement word
     *                    per set)
     * @param policy      replacement policy (owned)
     */
    SetAssocCache(std::string name, std::uint64_t size_bytes, unsigned ways,
                  std::unique_ptr<ReplacementPolicy> policy);

    /**
     * Core-side read/write access.
     *
     * On a hit the replacement state is updated; if @p from_core_side the
     * prefetch bit is cleared (and its previous value reported so the
     * caller can detect prefetched hits). A write hit sets the dirty bit.
     */
    CacheAccessResult access(LineAddr line, bool is_write,
                             bool from_core_side = true);

    /** Tag check with no state change (used before issuing prefetches). */
    bool probe(LineAddr line) const;

    /**
     * Insert a block, evicting if necessary. Returns the victim (if any)
     * so the caller can generate a writeback.
     */
    CacheVictim insert(LineAddr line, const CacheFill &fill);

    /**
     * Predict what insert() would evict, without changing any state
     * (used to check writeback backpressure before committing a fill).
     */
    CacheVictim peekVictim(LineAddr line) const;

    /** Invalidate a line if present; returns true if it was present. */
    bool invalidate(LineAddr line);

    /** Direct line-state inspection (tests/debug). */
    std::optional<CacheLineState> findLine(LineAddr line) const;

    std::size_t numSets() const { return sets; }
    unsigned numWays() const { return ways; }
    std::size_t setOf(LineAddr line) const { return line & (sets - 1); }
    const std::string &cacheName() const { return name; }

    /** Access to the replacement policy (tests/config). */
    ReplacementPolicy &replacementPolicy() { return *policy; }

    /** Checkpoint the tag-array state and the replacement policy. */
    void
    serialize(Serializer &s)
    {
        const std::size_t lines = tags.size();
        s.valueVec(tags);
        s.valueVec(dirtyBits);
        s.valueVec(prefetchBits);
        s.valueVec(fillCores);
        s.valueVec(validMask);
        if (s.loading() &&
            (tags.size() != lines || dirtyBits.size() != lines ||
             prefetchBits.size() != lines || fillCores.size() != lines ||
             validMask.size() != sets))
            s.fail("cache '" + name + "' geometry mismatch");
        policy->serialize(s);
    }

  private:
    /**
     * Sentinel stored in invalid ways' tag slots. No simulated line
     * address can equal it (line addresses are byte addresses >> 6, so
     * an all-ones line would need a 70-bit byte address), which keeps
     * the lookup scan a single compare per way.
     */
    static constexpr LineAddr invalidTag = ~static_cast<LineAddr>(0);

    /**
     * Shared tag-scan core for access/probe/invalidate/findLine:
     * way holding @p line in @p set, or the way count when absent.
     */
    unsigned findWay(std::size_t set, LineAddr line) const;

    /** Snapshot the (valid) block at set/way as an eviction victim. */
    CacheVictim victimAt(std::size_t set, unsigned way) const;

    /** Bitmask covering every way of one set. */
    std::uint64_t fullSetMask() const;

    std::string name;
    std::size_t sets;
    unsigned ways;
    std::unique_ptr<ReplacementPolicy> policy;

    // Structure-of-arrays line state, all sets * ways, row-major.
    std::vector<LineAddr> tags;            ///< invalidTag when invalid
    std::vector<std::uint8_t> dirtyBits;
    std::vector<std::uint8_t> prefetchBits;
    std::vector<CoreId> fillCores;
    std::vector<std::uint64_t> validMask;  ///< per-set bitmask of valid ways
};

} // namespace bop

#endif // BOP_CACHE_CACHE_HH
