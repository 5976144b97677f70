/**
 * @file
 * Figure 13: DRAM accesses (reads + writes) per 1000 instructions for
 * no-L2-prefetch, next-line, BO and SBP (4KB pages, 1 active core),
 * over the memory-heavy benchmarks the paper plots. Expected shapes:
 * next-line and BO generating approximately the same traffic; SBP
 * lighter on the pointer-chasing benchmarks (471, 473) and heavier on
 * 403/433.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace bop;
    BenchSession session(argc, argv);
    session.header("Figure 13: DRAM accesses per 1000 instructions "
                   "(4KB pages, 1 core)");

    // Prefetch pass in serial-sweep order.
    {
        const SystemConfig baseCfg = baselineConfig(1, PageSize::FourKB);
        for (const auto &bench : memoryHeavyBenchmarks()) {
            for (const auto kind :
                 {L2PrefetcherKind::None, L2PrefetcherKind::NextLine,
                  L2PrefetcherKind::BestOffset,
                  L2PrefetcherKind::Sandbox}) {
                SystemConfig cfg = baseCfg;
                cfg.l2Prefetcher = kind;
                session.farm.submit(bench, cfg);
            }
        }
        session.farm.drain();
    }

    TextTable table;
    table.row("benchmark", "no-prefetch", "next-line", "BO", "SBP");

    const SystemConfig base = baselineConfig(1, PageSize::FourKB);
    for (const auto &bench : memoryHeavyBenchmarks()) {
        std::vector<std::string> row = {bench};
        for (const auto kind :
             {L2PrefetcherKind::None, L2PrefetcherKind::NextLine,
              L2PrefetcherKind::BestOffset, L2PrefetcherKind::Sandbox}) {
            SystemConfig cfg = base;
            cfg.l2Prefetcher = kind;
            row.push_back(
                TextTable::fmt(session.runner.run(bench, cfg).dramPer1kInstr(),
                               1));
        }
        table.addRow(row);
    }
    table.print(std::cout);
    return session.finish();
}
