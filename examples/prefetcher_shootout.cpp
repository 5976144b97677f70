/**
 * @file
 * Full-system example: run one benchmark through the complete simulated
 * quad-core (here: 1 active core) under the whole prefetcher zoo —
 * the paper's contenders (none / next-line / SBP / BO) plus the
 * extension baselines (stream buffers, FDP, AC/DC, DPC-2-tuned BO) —
 * and compare IPC, DRAM traffic, prefetch quality and the learned
 * offset.
 *
 * Usage: prefetcher_shootout [benchmark] (default 433.milc)
 * The budgets and the other runner variables (BOP_WARMUP, BOP_INSTR,
 * ...; README "Runner options") are read as the benches read them.
 */

#include <iostream>
#include <stdexcept>
#include <string>

#include "common/table.hh"
#include "harness/experiment.hh"
#include "trace/workloads.hh"

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

    const std::string bench = argc > 1 ? argv[1] : "433.milc";
    std::cout << "Benchmark: " << bench << " (1 core, 4MB pages)\n\n";

    ExperimentRunner runner(options);
    TextTable table;
    table.row("L2 prefetcher", "IPC", "speedup", "L2 MPKI",
              "DRAM/1k-instr", "coverage", "timeliness", "learned D");

    SystemConfig base = baselineConfig(1, PageSize::FourMB);
    const double base_ipc = runner.run(bench, base).ipc();

    for (const auto kind :
         {L2PrefetcherKind::None, L2PrefetcherKind::NextLine,
          L2PrefetcherKind::StreamBuffer, L2PrefetcherKind::Fdp,
          L2PrefetcherKind::Acdc, L2PrefetcherKind::Sandbox,
          L2PrefetcherKind::BestOffset,
          L2PrefetcherKind::BestOffsetDpc2}) {
        SystemConfig cfg = base;
        cfg.l2Prefetcher = kind;
        const RunStats &s = runner.run(bench, cfg);
        std::string offset = "-";
        if (kind == L2PrefetcherKind::BestOffset)
            offset = std::to_string(s.boFinalOffset);
        else if (kind == L2PrefetcherKind::NextLine)
            offset = "1";
        table.row(cfg.describe(), TextTable::fmt(s.ipc()),
                  TextTable::fmt(s.ipc() / base_ipc),
                  TextTable::fmt(s.l2Mpki(), 1),
                  TextTable::fmt(s.dramPer1kInstr(), 1),
                  TextTable::fmt(s.prefetchCoverage()),
                  TextTable::fmt(s.prefetchTimeliness()), offset);
    }
    table.print(std::cout);
    std::cout << "\n(speedups are relative to the next-line baseline, "
                 "as in the paper)\n";
    return 0;
}
