/**
 * @file
 * DDR3 bank timing model (paper Table 1).
 *
 * All parameters are in *bus cycles*; one bus cycle equals four core
 * cycles. The model tracks, per bank, the open row and the earliest
 * times the next precharge/activate/CAS may issue, honouring tRCD, tRP,
 * tRAS, tCL, tCWL, tRTP, tWR, tWTR and tBURST, plus a shared data bus
 * per channel. Refresh and power constraints (tFAW) are not modeled,
 * as in the paper (Sec. 5.3).
 */

#ifndef BOP_DRAM_DRAM_TIMING_HH
#define BOP_DRAM_DRAM_TIMING_HH

#include <cstdint>

#include "common/serializer.hh"
#include "common/types.hh"
#include "dram/address_map.hh"

namespace bop
{

/** Bus-cycle count. */
using BusCycle = std::uint64_t;

/** DDR3 timing parameters in bus cycles (defaults: paper Table 1). */
struct DramTiming
{
    unsigned tCL = 11;    ///< CAS (read) latency
    unsigned tRCD = 11;   ///< activate to CAS
    unsigned tRP = 11;    ///< precharge latency
    unsigned tRAS = 33;   ///< activate to precharge
    unsigned tCWL = 8;    ///< CAS write latency
    unsigned tRTP = 6;    ///< read to precharge
    unsigned tWR = 12;    ///< write recovery (data end to precharge)
    unsigned tWTR = 6;    ///< write-to-read turnaround
    unsigned tBURST = 4;  ///< data burst (8 beats on a 64-bit bus)
    unsigned busRatio = 4;///< core cycles per bus cycle

    bool operator==(const DramTiming &) const = default;
};

/** Outcome classification of a DRAM access (row-buffer behaviour). */
enum class RowResult
{
    Hit,      ///< open row matched: CAS only
    Closed,   ///< bank idle: ACT + CAS
    Conflict, ///< other row open: PRE + ACT + CAS
};

/** What the timing model computed for one scheduled access. */
struct DramAccessTiming
{
    RowResult rowResult = RowResult::Closed;
    BusCycle issueAt = 0;    ///< first command (PRE/ACT/CAS) bus cycle
    BusCycle dataStart = 0;  ///< data burst start on the bus
    BusCycle dataEnd = 0;    ///< data burst end (completion for reads)
};

/**
 * Timing state of one DRAM channel: per-bank row/command state plus the
 * shared data bus. The scheduler asks "when would this access finish?"
 * via preview() and commits its choice via apply().
 */
class DramChannelTiming
{
  public:
    explicit DramChannelTiming(const DramTiming &timing);

    /** Compute the timing an access would have if scheduled at @p now. */
    DramAccessTiming preview(const DramCoord &c, bool is_write,
                             BusCycle now) const;

    /** Commit an access (updates bank and bus state). */
    DramAccessTiming apply(const DramCoord &c, bool is_write, BusCycle now);

    /** Would the access at @p now be a row-buffer hit? */
    bool isRowHit(const DramCoord &c) const;

    /** First bus cycle the shared data bus is free again. */
    BusCycle busFreeAt() const { return dataBusFreeAt; }

    /** The open row in a bank (tests). Returns false if bank closed. */
    bool openRowOf(int bank, std::uint64_t &row_out) const;

    const DramTiming &params() const { return timing; }

    /** Checkpoint all bank states and the shared data-bus state. */
    void
    serialize(Serializer &s)
    {
        for (auto &b : banks) {
            s.value(b.rowOpen);
            s.value(b.row);
            s.value(b.lastActAt);
            s.value(b.readyAt);
            s.value(b.lastReadCasAt);
            s.value(b.lastWriteDataEnd);
        }
        s.value(dataBusFreeAt);
        s.value(lastWriteBurstEnd);
    }

  private:
    struct BankState
    {
        bool rowOpen = false;
        std::uint64_t row = 0;
        BusCycle lastActAt = 0;        ///< last activate time
        BusCycle readyAt = 0;          ///< earliest next command
        BusCycle lastReadCasAt = 0;    ///< for tRTP
        BusCycle lastWriteDataEnd = 0; ///< for tWR
    };

    DramTiming timing;
    BankState banks[numBanks];
    BusCycle dataBusFreeAt = 0;
    BusCycle lastWriteBurstEnd = 0;    ///< channel-level tWTR reference
};

} // namespace bop

#endif // BOP_DRAM_DRAM_TIMING_HH
