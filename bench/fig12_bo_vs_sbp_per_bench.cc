/**
 * @file
 * Figure 12: per-benchmark speedup of BO relative to SBP. Expected
 * shapes: SBP occasionally ahead but never by a large margin (the
 * paper: always within 10%); BO substantially ahead on 429.mcf,
 * 433.milc and the timeliness-sensitive strided benchmarks.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace bop;
    BenchSession session(argc, argv);
    session.header("Figure 12: BO speedup relative to SBP");

    // Prefetch pass in serial-sweep order.
    for (const auto &bench : benchmarkNames()) {
        for (const auto &[cores, page] : baselineGrid()) {
            const SystemConfig base = baselineConfig(cores, page);
            SystemConfig bo = base;
            bo.l2Prefetcher = L2PrefetcherKind::BestOffset;
            SystemConfig sbp = base;
            sbp.l2Prefetcher = L2PrefetcherKind::Sandbox;
            session.farm.submit(bench, bo);
            session.farm.submit(bench, sbp);
        }
    }
    session.farm.drain();

    TextTable table;
    std::vector<std::string> header = {"benchmark"};
    for (const auto &[cores, page] : baselineGrid())
        header.push_back(gridLabel(cores, page));
    table.addRow(header);

    std::vector<std::vector<double>> ratios(baselineGrid().size());
    for (const auto &bench : benchmarkNames()) {
        std::vector<std::string> row = {bench};
        std::size_t g = 0;
        for (const auto &[cores, page] : baselineGrid()) {
            const SystemConfig base = baselineConfig(cores, page);
            SystemConfig bo = base;
            bo.l2Prefetcher = L2PrefetcherKind::BestOffset;
            SystemConfig sbp = base;
            sbp.l2Prefetcher = L2PrefetcherKind::Sandbox;
            const double r = session.runner.run(bench, bo).ipc() /
                             session.runner.run(bench, sbp).ipc();
            ratios[g++].push_back(r);
            row.push_back(TextTable::fmt(r));
        }
        table.addRow(row);
    }
    std::vector<std::string> gm = {"GM"};
    for (const auto &per_grid : ratios)
        gm.push_back(TextTable::fmt(geomean(per_grid)));
    table.addRow(gm);
    table.print(std::cout);
    return session.finish();
}
