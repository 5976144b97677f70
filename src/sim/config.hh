/**
 * @file
 * Simulated-system configuration (paper Table 1 + Table 2).
 *
 * One SystemConfig value describes a complete experiment configuration:
 * core counts, page size, cache/DRAM parameters, which L2 prefetcher to
 * use and its parameters, L3 replacement policy, and the DL1 stride
 * prefetcher switch. The benchmark harness builds these per figure.
 * The prefetchers other than BO and fixed-offset run with their
 * default configs.
 */

#ifndef BOP_SIM_CONFIG_HH
#define BOP_SIM_CONFIG_HH

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>

#include "core/best_offset.hh"
#include "dram/dram_timing.hh"
#include "common/types.hh"

namespace bop
{

/** Which L2 prefetcher the system instantiates (Sec. 5.6 / 6). */
enum class L2PrefetcherKind
{
    None,        ///< no L2 prefetching
    NextLine,    ///< baseline next-line with prefetch bits
    FixedOffset, ///< fixed offset D (Figs. 7/8)
    BestOffset,  ///< the paper's contribution
    Sandbox,     ///< SBP comparison point
    Stream,      ///< extension: classical stream prefetcher (Sec. 2)
    Fdp,         ///< extension: feedback-directed prefetching [37]
    Acdc,        ///< extension: GHB CZone/delta-correlation [22]
    StreamBuffer,///< extension: Jouppi stream buffers [15]
    BestOffsetDpc2, ///< extension: BO with dpc2BoConfig() (footnote 1)
};

/** L3 replacement policy selection (Fig. 3). */
enum class L3PolicyKind
{
    P5,    ///< the paper's 5P baseline policy
    Lru,
    Drrip,
};

/**
 * One value of a configuration enum: @c label is what describe()
 * prints, @c names the spellings flags and job lines accept (the first
 * is the one help lists; the second may be nullptr).
 */
template <typename E>
struct EnumName
{
    E value;
    const char *label;
    const char *names[2];
};

/** The name tables (the argument only picks the enum). */
std::span<const EnumName<L2PrefetcherKind>> enumNames(L2PrefetcherKind);
std::span<const EnumName<L3PolicyKind>> enumNames(L3PolicyKind);
std::span<const EnumName<PageSize>> enumNames(PageSize);

/** The row of @p value in its enum's name table. */
template <typename E>
const EnumName<E> &
enumName(E value)
{
    return *std::ranges::find(enumNames(value), value, &EnumName<E>::value);
}

/** Read @p text as one of E's spellings; false when it is none. */
template <typename E>
bool
parseEnumName(const std::string &text, E &out)
{
    for (const EnumName<E> &row : enumNames(E{})) {
        for (const char *name : row.names) {
            if (name != nullptr && text == name) {
                out = row.value;
                return true;
            }
        }
    }
    return false;
}

/** E's spellings as help lists them: "a | b | c". */
template <typename E>
std::string
enumNameList()
{
    std::string list;
    for (const EnumName<E> &row : enumNames(E{}))
        list += (list.empty() ? "" : " | ") + std::string(row.names[0]);
    return list;
}

/** Parse an L2 prefetcher name (bopsim's --prefetcher vocabulary). */
inline bool
parseL2PrefetcherName(const std::string &name, L2PrefetcherKind &kind)
{
    return parseEnumName(name, kind);
}

/** Core pipeline parameters (loosely Haswell, Table 1). */
struct CoreParams
{
    unsigned robSize = 256;
    unsigned dispatchWidth = 8;   ///< decode 8 instructions/cycle
    unsigned retireWidth = 12;    ///< retire 12 micro-ops/cycle
    unsigned loadPorts = 2;
    unsigned storePorts = 1;
    unsigned storeQueue = 42;
    unsigned loadQueue = 72;
    unsigned branchPenalty = 12;  ///< minimum redirect penalty
    unsigned intLatency = 1;
    unsigned fpLatency = 4;

    bool operator==(const CoreParams &) const = default;
};

/** Cache hierarchy latencies/sizes (Table 1). */
struct CacheParams
{
    std::uint64_t dl1Bytes = 32 * 1024;
    unsigned dl1Ways = 8;
    unsigned dl1Latency = 3;
    std::size_t dl1Mshrs = 32;

    std::uint64_t l2Bytes = 512 * 1024;
    unsigned l2Ways = 8;
    unsigned l2Latency = 11;
    unsigned l2TagLatency = 4;    ///< miss detection time
    std::size_t l2FillQueue = 16;

    std::uint64_t l3Bytes = 8 * 1024 * 1024;
    unsigned l3Ways = 16;
    unsigned l3Latency = 21;
    unsigned l3TagLatency = 10;   ///< miss detection time
    std::size_t l3FillQueue = 32;

    std::size_t prefetchQueue = 8;

    bool operator==(const CacheParams &) const = default;
};

/** Full system configuration. */
struct SystemConfig
{
    /**
     * Cores actually running a trace (the paper evaluates 1, 2 and 4,
     * Sec. 5.1; the reproduction accepts any count up to numCores).
     */
    int activeCores = 1;

    /**
     * Total cores in the chip topology — sizes every per-core uncore
     * structure (DRAM read/write queues, fairness counters, 5P per-core
     * miss counters). 0 means "same as activeCores".
     */
    int numCores = 0;

    /**
     * DRAM channels, each with its own independent controller. Must be
     * a power of two (the line-to-channel map XOR-folds address bits);
     * the paper's chip has 2 (Table 1).
     */
    int numChannels = 2;

    PageSize pageSize = PageSize::FourKB;

    CoreParams core;
    CacheParams caches;
    DramTiming dram;

    L3PolicyKind l3Policy = L3PolicyKind::P5;

    bool dl1StridePrefetcher = true;

    L2PrefetcherKind l2Prefetcher = L2PrefetcherKind::NextLine;
    int fixedOffset = 1;          ///< for L2PrefetcherKind::FixedOffset
    BoConfig bo; ///< BestOffset's config (SBP takes its maxOffset)

    std::uint64_t seed = 42;      ///< run seed (vmem, policies, traces)

    /**
     * Event-horizon fast-forward: System::step() jumps the clock over
     * cycles in which no component can possibly act (every component
     * reports a nextEventAt horizon and the step takes the minimum).
     * Provably cycle-exact — all simulated statistics and cycle counts
     * are bit-identical with this off — so it is a pure speed knob.
     * The BOP_DISABLE_FASTFORWARD environment variable (any non-empty
     * value except "0") forces it off at System construction, which is
     * how CI exercises the exactness gate.
     */
    bool fastForward = true;

    /**
     * Fill the shared L3 with (clean) placeholder lines at construction
     * so replacement behaviour is exercised from the first cycle. The
     * paper's 1B-instruction samples run with a long-filled cache; at
     * this repository's instruction budgets a cold 8MB L3 would act as
     * an infinite cache and mask the replacement policies entirely.
     */
    bool prewarmL3 = true;

    /** Topology core count with the numCores=0 default resolved. */
    int
    coreCount() const
    {
        return numCores > 0 ? numCores : activeCores;
    }

    /**
     * Check the topology for consistency; throws std::invalid_argument
     * with a descriptive message on the first violated constraint.
     * System and MemHierarchy validate at construction so a bad
     * configuration fails loudly instead of indexing out of bounds.
     */
    void validate() const;

    /** Validated copy with the numCores=0 default resolved. */
    SystemConfig resolved() const;

    /** Short human-readable description of this configuration. */
    std::string describe() const;
};

} // namespace bop

#endif // BOP_SIM_CONFIG_HH
