/**
 * @file
 * Instruction trace interface.
 *
 * The paper drives its simulator with Pin traces of SPEC CPU2006; we
 * drive ours with deterministic synthetic generators (see workloads.hh)
 * exposing the same information a trace record carries: instruction
 * kind, PC, data virtual address for memory ops, and branch outcome.
 *
 * `dependsOnPrevLoad` models the data-dependence structure that decides
 * memory-level parallelism: a dependent instruction cannot execute (and
 * a dependent load cannot even issue its access) before the most recent
 * preceding load completes. Pointer-chasing workloads set it on nearly
 * every load; streaming workloads on almost none.
 */

#ifndef BOP_TRACE_TRACE_HH
#define BOP_TRACE_TRACE_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/serializer.hh"
#include "common/types.hh"

namespace bop
{

/** Kind of a trace instruction. */
enum class InstrKind : std::uint8_t
{
    IntOp,   ///< short-latency ALU op
    FpOp,    ///< longer-latency FP op
    Load,
    Store,
    Branch,  ///< conditional branch
};

/**
 * One trace record. A core consumes a fresh record right after the
 * source wrote it, field by field, so each field is read back with
 * the width it was written with and the CPU forwards it from its store
 * buffer. The two addresses lead and the three one-byte fields share
 * the last word, which keeps the record at 24 bytes. The checkpoint
 * order below is independent of this layout.
 */
struct TraceInstr
{
    Addr pc = 0;
    Addr vaddr = 0;          ///< loads/stores only
    InstrKind kind = InstrKind::IntOp;
    bool taken = false;      ///< branches only
    bool dependsOnPrevLoad = false;

    /** Checkpoint every field (records can sit in a core's ROB). */
    void
    serialize(Serializer &s)
    {
        s.value(kind);
        s.value(pc);
        s.value(vaddr);
        s.value(taken);
        s.value(dependsOnPrevLoad);
    }
};

/** An endless, deterministic instruction stream. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Produce the next instruction (streams never end). */
    virtual TraceInstr next() = 0;

    /** Name of the workload (e.g. "462.libquantum"). */
    virtual std::string name() const = 0;

    /**
     * Checkpoint the source's read position and generator state.
     * Default: stateless source (nothing to save).
     */
    virtual void serialize(Serializer &s) { (void)s; }
};

} // namespace bop

#endif // BOP_TRACE_TRACE_HH
