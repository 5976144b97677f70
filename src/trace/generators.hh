/**
 * @file
 * Synthetic trace generation.
 *
 * A WorkloadSpec composes weighted access streams (sequential, strided,
 * pointer-chasing, uniform-random) with instruction-mix parameters
 * (memory/branch/FP fractions, dependence structure, branch behaviour).
 * SyntheticTrace turns a spec into a deterministic instruction stream.
 *
 * The streams are engineered to reproduce the *line-stride structure*
 * of the paper's workloads (Sec. 3 examples, Sec. 6 / Fig. 8 analysis):
 * that structure — not the exact instruction semantics — is what offset
 * prefetchers respond to. See workloads.cc for the 29 benchmark specs
 * and docs/WORKLOADS.md for what each keeps of its namesake.
 */

#ifndef BOP_TRACE_GENERATORS_HH
#define BOP_TRACE_GENERATORS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "trace/trace.hh"

namespace bop
{

/** Address-pattern kind of one stream. */
enum class StreamPattern
{
    Sequential,   ///< cursor advances by stepBytes
    Strided,      ///< same mechanics, conventionally larger stride
    PointerChase, ///< random walk; loads depend on the previous load
    Random,       ///< uniform random in the region, independent
};

/** One memory access stream. */
struct StreamSpec
{
    StreamPattern pattern = StreamPattern::Sequential;
    std::uint64_t regionBytes = 1 << 20; ///< stream working set
    std::int64_t stepBytes = 64;         ///< cursor advance per element
    double weight = 1.0;                 ///< selection weight
    double storeRatio = 0.0;             ///< fraction of accesses storing
    double scramble = 0.0;               ///< out-of-order emission prob.
    /**
     * Accesses issued per element before the cursor advances. Real
     * programs read several fields of each record (sub-line accesses
     * that hit the DL1), which is what keeps SPEC L2 miss rates in the
     * tens-of-MPKI range instead of one miss per memory instruction.
     * Extra accesses touch the element's first line at +8B offsets.
     */
    int accessesPerElement = 1;
    /**
     * Probability that an access revisits one of the last 16 elements
     * instead of advancing — the short-range temporal locality that
     * makes compute-bound benchmarks live in the DL1.
     */
    double reuseFraction = 0.0;
    /**
     * PointerChase only: probability that the next node sits within a
     * few lines of the current one (allocation-order locality). Real
     * pointer-heavy codes allocate neighbouring nodes together, which
     * is what gives next-line prefetching its partial coverage on
     * them; 0 makes the chase uniformly random.
     */
    double chaseLocality = 0.35;
    /**
     * Line phase added to the region base, so multiple streams can
     * interleave inside one region (e.g. the 470.lbm-like two-field
     * pattern: stride 5 lines with a +3-line phase companion).
     */
    std::uint64_t phaseBytes = 0;
    /**
     * Region id: streams with equal region ids share one memory region
     * (phase-interleaved); distinct ids get disjoint regions.
     */
    int regionId = -1;
    /**
     * PC behaviour: 1 = a single load PC drives the stream (the DL1
     * stride prefetcher can learn it); N>1 = N PCs used round-robin;
     * sharedPcGroup >= 0 makes streams share a PC group, interleaving
     * their strides under one PC and defeating the PC-indexed DL1
     * prefetcher (as happens for 433.milc in the paper, Sec. 6 fn. 11).
     */
    int pcCount = 1;
    int sharedPcGroup = -1;
};

/** Full workload description. */
struct WorkloadSpec
{
    std::string name;
    double memFraction = 0.35;    ///< instructions that are loads/stores
    double branchFraction = 0.12; ///< instructions that are branches
    double fpFraction = 0.0;      ///< of plain ops, fraction FP
    double depFraction = 0.0;     ///< extra load-dep probability (mem ops)
    double opDepFraction = 0.1;   ///< plain ops depending on prev load
    /** Fraction of branches that are data-dependent & hard to predict. */
    double branchRandomFraction = 0.1;
    double branchBias = 0.5;      ///< taken-probability of random branches
    int loopPeriod = 16;          ///< loop branches: not-taken every Nth
    std::vector<StreamSpec> streams;
};

/** Deterministic trace source driven by a WorkloadSpec. */
class SyntheticTrace : public TraceSource
{
  public:
    SyntheticTrace(WorkloadSpec spec, std::uint64_t seed);

    TraceInstr next() override;
    std::string name() const override { return spec.name; }

    const WorkloadSpec &specification() const { return spec; }

    /**
     * Checkpoint the RNG (including its refill buffer position) and
     * every stream's mutable cursor state. The spec, the stream bases
     * and the PC layout are constructor-derived and not serialized;
     * the scramble pool and reuse ring hold addresses drawn during
     * generation and are.
     */
    void
    serialize(Serializer &s) override
    {
        rng.serialize(s);
        s.seqExact(streams, [](Serializer &sr, StreamState &st) {
            sr.value(st.cursor);
            sr.value(st.chase);
            sr.value(st.chasePrev);
            sr.value(st.pcIndex);
            sr.value(st.elementAddr);
            sr.value(st.subAccess);
            sr.value(st.lastSubIndex);
            sr.value(st.lastWasReuse);
            sr.valueVec(st.pool);
            sr.valueVec(st.recent);
            std::uint64_t pos64 = st.recentPos;
            sr.value(pos64);
            if (sr.loading()) {
                if (!st.recent.empty() && pos64 >= st.recent.size())
                    sr.fail("reuse ring position out of range");
                st.recentPos = static_cast<std::size_t>(pos64);
            }
        }, "synthetic trace streams");
        s.value(loopCounter);
        s.value(opPc);
    }

  private:
    struct StreamState
    {
        const StreamSpec *spec = nullptr;
        /** The spec's probabilities as integer draw tests. */
        Chance reuse{0.0};
        Chance scramble{0.0};
        Chance store{0.0};
        /** Pointer-chase neighbour test on 16 hash bits:
         *  (chase & 0xffff) < this  <=>  the chaseLocality rule. */
        std::uint64_t chaseNear = 0;
        std::uint64_t regionLines = 0; ///< regionBytes >> lineShift
        bool linesPow2 = false;        ///< wrap by mask, not modulo
        Addr base = 0;
        std::uint64_t cursor = 0;
        std::uint64_t chase = 0;
        /**
         * Previous pointer-chase element (0 before the first), tracked
         * inside patternAddr so the chaseLocality neighbour branch
         * works for both accessesPerElement paths. elementAddr cannot
         * serve this role: the accessesPerElement == 1 path never sets
         * it, which used to silently disable the locality knob.
         */
        Addr chasePrev = 0;
        Addr pcBase = 0;
        int pcIndex = 0;
        Addr elementAddr = 0;   ///< current element's base address
        int subAccess = 0;      ///< accesses already made to the element
        int lastSubIndex = 0;   ///< field index of the last access
        bool lastWasReuse = false; ///< last access came from the ring
        std::vector<Addr> pool; ///< scramble lookahead pool
        std::vector<Addr> recent; ///< ring of recent elements (reuse)
        std::size_t recentPos = 0;
    };

    /** Next address for a stream, honouring pattern and scramble. */
    Addr streamAddr(StreamState &st);
    /** Pattern address drawn through the scramble pool. */
    Addr scrambledAddr(StreamState &st);
    /** Record an element in the stream's reuse ring. */
    void rememberElement(StreamState &st, Addr elem);
    /** Raw in-order next address of the stream's pattern. */
    Addr patternAddr(StreamState &st);

    /** @p line modulo the stream's region line count. */
    static std::uint64_t
    wrapLine(const StreamState &st, std::uint64_t line)
    {
        return st.linesPow2 ? line & (st.regionLines - 1)
                            : line % st.regionLines;
    }

    WorkloadSpec spec;
    /** Buffered so per-instruction draw bursts refill in one tight
     *  loop; the draw stream is bit-identical to a plain Rng. */
    BufferedRng rng;
    std::vector<StreamState> streams;
    /**
     * The per-instruction float tests on a 53-bit draw u, as integer
     * thresholds that decide every u the same way: u < memBelow is
     * `u * 2^-53 < memFraction`, u < branchBelow the same against
     * memFraction + branchFraction, and u >= pickAt[i] is the stream
     * pick's `u * 2^-53 * total >= cumWeight[i]`.
     */
    std::uint64_t memBelow = 0;
    std::uint64_t branchBelow = 0;
    std::vector<std::uint64_t> pickAt;
    Chance depChance{0.0};
    Chance branchRandom{0.0};
    Chance branchTaken{0.0};
    Chance fpChance{0.0};
    Chance opDep{0.0};
    std::uint64_t loopCounter = 0;
    Addr opPc = 0;
};

/**
 * The Sec. 5.1 cache-thrashing micro-benchmark: writes a huge array,
 * "going through the array quickly and sequentially".
 */
WorkloadSpec makeThrasherSpec();

} // namespace bop

#endif // BOP_TRACE_GENERATORS_HH
