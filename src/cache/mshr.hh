/**
 * @file
 * DL1 miss status holding registers.
 *
 * The paper keeps MSHRs only at the DL1 (Sec. 5.4): they track which
 * loads/stores wait on a missing block, coalesce requests to the same
 * line, and prevent redundant miss requests. L2/L3 use fill-queue CAMs
 * instead. Table 1: 32 DL1 block requests.
 */

#ifndef BOP_CACHE_MSHR_HH
#define BOP_CACHE_MSHR_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/serializer.hh"
#include "common/types.hh"

namespace bop
{

/** One MSHR: a pending DL1 block request plus its waiting micro-ops. */
struct MshrEntry
{
    bool valid = false;
    LineAddr line = 0;
    bool prefetchOnly = true;   ///< no demand waiter yet
    bool storeIntent = false;   ///< a store waits: fill becomes dirty
    int storeWaiters = 0;       ///< store-queue slots to free on fill
    std::vector<std::uint32_t> waiters; ///< ROB indices to wake
    Cycle issuedAt = 0;
    std::uint32_t id = 0;
};

/**
 * Fixed-size MSHR file with line-address matching.
 *
 * The CAM probe runs on every DL1 request, so the line match scans a
 * flat tag array (invalid slots hold a sentinel no simulated line can
 * equal) instead of striding over the fat entry structs, and skips the
 * scan entirely while the file is empty.
 */
class MshrFile
{
  public:
    explicit MshrFile(std::size_t capacity);

    bool full() const { return live >= entries.size(); }
    std::size_t size() const { return live; }

    /** Find the MSHR tracking @p line, if any. */
    MshrEntry *find(LineAddr line);

    /**
     * Allocate an MSHR for @p line. Caller must have checked full() and
     * that no entry for the line exists. Returns the entry id.
     */
    std::uint32_t allocate(LineAddr line, bool prefetch_only, Cycle now);

    /** Complete (deallocate) the MSHR for @p line; returns its state. */
    std::optional<MshrEntry> complete(LineAddr line);

    /** Complete by id. */
    std::optional<MshrEntry> completeById(std::uint32_t id);

    /**
     * Checkpoint every slot (capacity is configuration). The line tags
     * and the live count are not stored: a load rebuilds them from the
     * valid entries.
     */
    void serialize(Serializer &s);

  private:
    /** Sentinel tag for free slots (no line address reaches ~0). */
    static constexpr LineAddr freeTag = ~static_cast<LineAddr>(0);

    /** Slot holding @p line, or the capacity when absent. */
    std::size_t slotOf(LineAddr line) const;

    std::vector<MshrEntry> entries;
    std::vector<LineAddr> lineTags; ///< parallel to entries; freeTag = free
    std::size_t live = 0;
    std::uint32_t nextId = 1;
};

} // namespace bop

#endif // BOP_CACHE_MSHR_HH
