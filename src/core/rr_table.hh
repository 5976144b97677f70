/**
 * @file
 * Recent Requests (RR) table of the BO prefetcher (paper Secs. 4.1, 4.4).
 *
 * The RR table records the *base address* of prefetch requests that have
 * been completed: if the prefetched line is X+D, the base address X is
 * written when the line is inserted into the L2. A hit for X-d during
 * best-offset learning therefore means a prefetch with offset d would
 * have been issued early enough to complete by now — this is how BO
 * folds prefetch timeliness into offset selection.
 *
 * Implementation follows the paper's simplest choice: direct-mapped,
 * accessed through a hash (for the default 256 entries: XOR of the 8
 * least-significant line-address bits with the next 8 bits), holding a
 * 12-bit partial tag (the line-address bits just above the 8 skipped
 * LSBs).
 *
 * The DPC-2 variant (paper footnote 1) splits the same capacity into
 * banks selected by line-address bit 1 (and up, for more than two);
 * each bank hashes and tags exactly like a table of its own size.
 * One bank is the paper's table.
 */

#ifndef BOP_CORE_RR_TABLE_HH
#define BOP_CORE_RR_TABLE_HH

#include <cstdint>
#include <vector>

#include "common/serializer.hh"
#include "common/types.hh"

namespace bop
{

/** Direct-mapped recent-requests table with partial tags. */
class RrTable
{
  public:
    /**
     * @param entries  number of entries over all banks (power of two;
     *                 paper: 256)
     * @param tag_bits partial tag width (paper: 12)
     * @param banks    power of two dividing @p entries (paper: 1)
     */
    explicit RrTable(std::size_t entries = 256, unsigned tag_bits = 12,
                     std::size_t banks = 1);

    /** Record that @p line was the base of a completed prefetch. */
    void insert(LineAddr line);

    /** Was @p line recently recorded? (modulo partial-tag aliasing) */
    bool contains(LineAddr line) const;

    /** Invalidate all entries. */
    void clear();

    std::size_t numEntries() const { return valid.size(); }
    unsigned tagBits() const { return numTagBits; }

    /** Exposed for tests: index (bank offset included)/tag computation. */
    std::size_t indexOf(LineAddr line) const;
    std::uint32_t tagOf(LineAddr line) const;

    /** Checkpoint tags and valid bits (geometry is config-derived). */
    void
    serialize(Serializer &s)
    {
        s.valueVecExact(tags, "RR table tags");
        s.boolVecExact(valid, "RR table valid bits");
    }

  private:
    unsigned indexBits;         ///< per-bank index width
    unsigned numTagBits;
    std::size_t bankMask;       ///< banks - 1
    std::vector<std::uint32_t> tags;
    std::vector<bool> valid;
};

} // namespace bop

#endif // BOP_CORE_RR_TABLE_HH
