/**
 * @file
 * Figure 2: baseline IPC of core 0 for the six configurations
 * (1/2/4 active cores x 4KB/4MB pages). Expected shapes: 4MB pages
 * above 4KB (fewer TLB misses); IPC dropping as thrasher cores join;
 * memory-bound benchmarks (429, 433, 459, 470, 471, 473) lowest.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace bop;
    BenchSession session(argc, argv);
    session.header("Figure 2: baseline IPC (next-line L2 prefetch, 5P L3)");

    // Prefetch pass: farm the grid out in serial-sweep order.
    for (const auto &bench : benchmarkNames())
        for (const auto &[cores, page] : baselineGrid())
            session.farm.submit(bench, baselineConfig(cores, page));
    session.farm.drain();

    TextTable table;
    std::vector<std::string> header = {"benchmark"};
    for (const auto &[cores, page] : baselineGrid())
        header.push_back(gridLabel(cores, page));
    table.addRow(header);

    for (const auto &bench : benchmarkNames()) {
        std::vector<std::string> row = {bench};
        for (const auto &[cores, page] : baselineGrid()) {
            const RunStats &s =
                session.runner.run(bench, baselineConfig(cores, page));
            row.push_back(TextTable::fmt(s.ipc()));
        }
        table.addRow(row);
    }
    table.print(std::cout);
    return session.finish();
}
