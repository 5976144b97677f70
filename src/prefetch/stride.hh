/**
 * @file
 * DL1 stride prefetcher (paper Sec. 5.5).
 *
 * A 64-entry prefetch table accessed with the PC of load/store
 * micro-ops. Each entry holds a tag, the last (virtual) address, the
 * last stride, a 4-bit confidence counter and LRU bits. The table is
 * *updated at retirement* (so accesses are seen in program order) while
 * *prefetch requests are issued at DL1 access time* (miss or prefetched
 * hit) — with a fixed prefetch distance of 16 strides:
 *
 *     prefetchaddr = currentaddr + 16 * stride     (conf == 15 only)
 *
 * A 16-entry filter drops prefetches to recently prefetched lines;
 * the hierarchy then translates through the TLB2 (dropping on a miss)
 * and issues to the uncore.
 */

#ifndef BOP_PREFETCH_STRIDE_HH
#define BOP_PREFETCH_STRIDE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/serializer.hh"
#include "common/types.hh"

namespace bop
{

/** Configuration of the DL1 stride prefetcher. */
struct StrideConfig
{
    std::size_t tableEntries = 64;
    unsigned ways = 4;                ///< table associativity
    int confidenceMax = 15;           ///< 4-bit confidence, issue at max
    int prefetchDistance = 16;        ///< strides ahead (paper: 16)
    std::size_t filterEntries = 16;   ///< recent-prefetch line filter
};

/** PC-indexed stride prefetcher for the DL1. */
class StridePrefetcher
{
  public:
    explicit StridePrefetcher(StrideConfig cfg = {});

    /**
     * Update the table at retirement of a load/store micro-op (program
     * order, virtual addresses — Sec. 5.5).
     */
    void onRetire(Addr pc, Addr vaddr);

    /**
     * DL1 access notification (miss or prefetched hit only). Returns the
     * *virtual* byte address to prefetch, or nullopt. The caller is
     * responsible for TLB translation and issue.
     */
    std::optional<Addr> onAccess(Addr pc, Addr vaddr);

    /** Tests: confidence of the entry for @p pc (-1 if absent). */
    int confidenceOf(Addr pc) const;
    /** Tests: current stride of the entry for @p pc (0 if absent). */
    std::int64_t strideOf(Addr pc) const;

    /** Checkpoint table, PC tags, recent-prefetch filter, LRU clock. */
    void
    serialize(Serializer &s)
    {
        s.seqExact(table, [](Serializer &sr, Entry &e) {
            sr.value(e.lastAddr);
            sr.value(e.stride);
            sr.value(e.confidence);
            sr.value(e.lruStamp);
        }, "stride table");
        s.valueVecExact(pcTags, "stride table PC tags");
        // The recent-prefetch ring grows on demand up to its capacity,
        // and its head only advances once it is full.
        s.valueVec(filter, cfg.filterEntries, "stride filter");
        std::uint64_t head64 = filterHead;
        s.value(head64);
        s.value(stamp);
        if (s.loading()) {
            const bool ringFull = cfg.filterEntries > 0 &&
                                  filter.size() == cfg.filterEntries;
            if (ringFull ? head64 >= cfg.filterEntries : head64 != 0)
                s.fail("stride filter head out of range");
            filterHead = static_cast<std::size_t>(head64);
        }
    }

  private:
    struct Entry
    {
        Addr lastAddr = 0;
        std::int64_t stride = 0;
        int confidence = 0;
        std::uint64_t lruStamp = 0;
    };

    /** Sentinel PC tag for free table slots (no real PC reaches ~0). */
    static constexpr Addr freePc = ~static_cast<Addr>(0);

    Entry *find(Addr pc);
    const Entry *find(Addr pc) const;
    Entry &allocate(Addr pc);
    bool filterAllows(LineAddr line);

    StrideConfig cfg;
    std::size_t numSets;
    std::vector<Entry> table;   ///< numSets * ways
    /**
     * PC tags parallel to table (freePc = empty slot). The table is
     * probed twice per memory micro-op, so the match scans this flat
     * 8-byte-stride array instead of the fat entry structs.
     */
    std::vector<Addr> pcTags;
    std::vector<LineAddr> filter; ///< flat ring of recent prefetch lines
    std::size_t filterHead = 0;   ///< oldest ring entry (next overwrite)
    std::uint64_t stamp = 0;
};

} // namespace bop

#endif // BOP_PREFETCH_STRIDE_HH
