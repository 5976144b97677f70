/**
 * @file
 * Tables 1 & 2: print the baseline microarchitecture parameters and the
 * BO prefetcher defaults, as configured in this reproduction.
 */

#include <iostream>

#include "bench_common.hh"
#include "common/table.hh"
#include "core/best_offset.hh"
#include "harness/experiment.hh"
#include "sim/config.hh"

int
main(int argc, char **argv)
{
    using namespace bop;

    // No simulations here, but the CLI stays uniform with the other
    // benches (an empty record array is still a valid artifact).
    BenchSession session(argc, argv);

    std::cout << "=== Table 1: baseline microarchitecture ===\n\n";
    const SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
    TextTable t1;
    t1.row("parameter", "value");
    t1.row("reorder buffer", std::to_string(cfg.core.robSize) +
                                 " micro-ops");
    t1.row("decode/dispatch", std::to_string(cfg.core.dispatchWidth) +
                                  " instructions / cycle");
    t1.row("retire", std::to_string(cfg.core.retireWidth) +
                         " micro-ops / cycle");
    t1.row("branch misp. penalty", std::to_string(cfg.core.branchPenalty) +
                                       " cycles (minimum)");
    t1.row("ld/st queues", std::to_string(cfg.core.loadQueue) +
                               " loads, " +
                               std::to_string(cfg.core.storeQueue) +
                               " stores");
    t1.row("MSHR", std::to_string(cfg.caches.dl1Mshrs) +
                       " DL1 block requests");
    t1.row("cache line", "64 bytes");
    t1.row("DL1", "32KB, 8-way LRU, 3-cycle lat.");
    t1.row("L2 (private)", "512KB, 8-way LRU, 11-cycle lat., 16-entry "
                           "fill queue");
    t1.row("L3 (shared)", "8MB, 16-way 5P, 21-cycle lat., 32-entry "
                          "fill queue");
    t1.row("TLB", "DTLB1 64, TLB2 512 entries");
    t1.row("memory", "2 channels, 1 controller/channel, bus cycle = 4 "
                     "core cycles");
    t1.row("DDR3 (bus cycles)",
           "tCL=11 tRCD=11 tRP=11 tRAS=33 tCWL=8 tRTP=6 tWR=12 tWTR=6 "
           "tBURST=4");
    t1.row("mem controller", "32-entry read + 32-entry write queue per "
                             "core");
    t1.row("DL1 prefetch", "stride prefetcher, 64 entries, distance 16");
    t1.row("L2 prefetch", "next-line prefetcher (baseline)");
    t1.row("page size", "4KB / 4MB");
    t1.row("active cores", "1 / 2 / 4");
    t1.print(std::cout);

    std::cout << "\n=== Table 2: BO prefetcher default parameters ===\n\n";
    const BoConfig bo;
    TextTable t2;
    t2.row("parameter", "value");
    t2.row("RR table entries", std::to_string(bo.rrEntries));
    t2.row("RR tag bits", std::to_string(bo.rrTagBits));
    t2.row("SCOREMAX", std::to_string(bo.scoreMax));
    t2.row("ROUNDMAX", std::to_string(bo.roundMax));
    t2.row("BADSCORE", std::to_string(bo.badScore));
    t2.row("scores", std::to_string(makeOffsetList(bo.maxOffset).size()));
    t2.row("offset list", "1..256, prime factors <= 5 (Sec. 4.2)");
    t2.print(std::cout);
    return session.finish();
}
