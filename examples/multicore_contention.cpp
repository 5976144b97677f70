/**
 * @file
 * Full-system example reproducing the paper's multi-core methodology
 * (Sec. 5.1): core 0 runs a benchmark while cores 1..3 run the
 * cache-thrashing micro-benchmark. Shows how contention stretches the
 * L2 miss latency and how the Best-Offset prefetcher responds by
 * choosing larger offsets (Sec. 6: "The best offset is generally larger
 * with longer L2 miss latencies").
 *
 * Usage: multicore_contention [benchmark] (default 462.libquantum)
 * The budgets and the other runner variables (BOP_WARMUP, BOP_INSTR,
 * ...; README "Runner options") are read as the benches read them.
 */

#include <iostream>
#include <stdexcept>
#include <string>

#include "common/table.hh"
#include "harness/experiment.hh"

int
main(int argc, char **argv)
{
    using namespace bop;

    RunnerOptions options;
    try {
        options = RunnerOptions::fromEnv(OptionReader::Bench);
    } catch (const std::invalid_argument &e) {
        std::cerr << argv[0] << ": " << e.what() << "\n";
        return 2;
    }

    const std::string bench = argc > 1 ? argv[1] : "462.libquantum";
    std::cout << "Benchmark on core 0: " << bench
              << "; other active cores run the L3 thrasher.\n\n";

    ExperimentRunner runner(options);
    TextTable table;
    table.row("active cores", "channels", "baseline IPC", "BO IPC",
              "BO speedup", "BO offset", "DRAM/1k-instr");

    // 1/2/4 cores are the paper's configurations; 8 goes beyond them
    // (the topology is runtime configuration — the channel count grows
    // with the core count; see ext_scaling for the full 1-16 sweep).
    for (const int cores : {1, 2, 4, 8}) {
        SystemConfig base = baselineConfig(cores, PageSize::FourMB);
        SystemConfig bo = base;
        bo.l2Prefetcher = L2PrefetcherKind::BestOffset;

        const RunStats &sb = runner.run(bench, base);
        const RunStats &so = runner.run(bench, bo);
        table.row(cores, base.numChannels, TextTable::fmt(sb.ipc()),
                  TextTable::fmt(so.ipc()),
                  TextTable::fmt(so.ipc() / sb.ipc()),
                  so.boFinalOffset,
                  TextTable::fmt(so.dramPer1kInstr(), 1));
    }
    table.print(std::cout);
    std::cout << "\nExpected shape (paper Fig. 2 / Fig. 6): core-0 IPC "
                 "drops as thrashers join;\nBO's speedup over next-line "
                 "is typically larger at 2 cores than at 1.\n";
    return 0;
}
