/**
 * @file
 * The 29 SPEC CPU2006-like synthetic workloads.
 *
 * Each workload reproduces the documented memory behaviour of its
 * namesake as far as offset prefetching is concerned (working-set size,
 * line-stride structure, MLP/dependence structure, branch behaviour).
 * The four benchmarks the paper analyses in Fig. 8 are shaped exactly
 * to their described offset-response curves:
 *
 *   433.milc        strided, period 32 lines, huge WS (peaks at k*32)
 *   459.GemsFDTD    stride ~29.3 lines (peaks near k*29, off-list)
 *   470.lbm         two fields, stride 5 lines with +3-line phase
 *                   (peaks at k*5, secondary at k*5+3)
 *   462.libquantum  long sequential streams, bandwidth-bound
 *
 * See docs/WORKLOADS.md for the substitution rationale, the
 * calibration targets and the known artifacts.
 */

#ifndef BOP_TRACE_WORKLOADS_HH
#define BOP_TRACE_WORKLOADS_HH

#include <memory>
#include <string>
#include <vector>

#include "trace/generators.hh"
#include "trace/trace.hh"

namespace bop
{

/** The 29 benchmark names, in the paper's x-axis order. */
const std::vector<std::string> &benchmarkNames();

/** Short names (the numeric prefix) used on the paper's x-axes. */
std::string shortName(const std::string &benchmark);

/** Spec for one benchmark (throws on unknown name). */
WorkloadSpec workloadSpec(const std::string &benchmark);

/** Build a trace source for one benchmark. */
std::unique_ptr<TraceSource> makeWorkload(const std::string &benchmark,
                                          std::uint64_t seed);

/** Build the cache-thrashing micro-benchmark trace (Sec. 5.1). */
std::unique_ptr<TraceSource> makeThrasher(std::uint64_t seed);

/**
 * The benchmarks Fig. 13 plots (the ones with non-negligible DRAM
 * traffic; the paper omits the others).
 */
const std::vector<std::string> &memoryHeavyBenchmarks();

} // namespace bop

#endif // BOP_TRACE_WORKLOADS_HH
