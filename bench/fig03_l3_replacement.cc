/**
 * @file
 * Figure 3: impact of replacing the 5P L3 policy with LRU and DRRIP
 * (4KB pages, 1/2/4 cores; speedups relative to the 5P baseline, so
 * values below 1 mean 5P is better). Expected shapes: near 1.0 with a
 * single core (5P slightly ahead via the prefetch-aware IP3), clearly
 * below 1.0 with 2/4 cores where the core-aware policies provide
 * fairness against the thrashers.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace bop;
    BenchSession session(argc, argv);
    session.header("Figure 3: LRU and DRRIP vs the 5P baseline (4KB pages)");

    const std::vector<std::pair<std::string, L3PolicyKind>> policies = {
        {"LRU", L3PolicyKind::Lru}, {"DRRIP", L3PolicyKind::Drrip}};

    // Prefetch pass in serial-sweep order.
    for (const auto &[pname, policy] : policies) {
        for (const auto &bench : benchmarkNames()) {
            for (const int cores : {1, 2, 4}) {
                const SystemConfig base =
                    baselineConfig(cores, PageSize::FourKB);
                SystemConfig cfg = base;
                cfg.l3Policy = policy;
                session.farm.submit(bench, cfg);
                session.farm.submit(bench, base);
            }
        }
    }
    session.farm.drain();

    for (const auto &[pname, policy] : policies) {
        std::cout << "--- " << pname << " relative to 5P ---\n";
        TextTable table;
        table.row("benchmark", "1-core", "2-core", "4-core");
        std::vector<double> gms[3];
        for (const auto &bench : benchmarkNames()) {
            std::vector<std::string> row = {bench};
            int g = 0;
            for (const int cores : {1, 2, 4}) {
                const SystemConfig base =
                    baselineConfig(cores, PageSize::FourKB);
                SystemConfig cfg = base;
                cfg.l3Policy = policy;
                const double s = session.runner.speedup(bench, cfg, base);
                gms[g++].push_back(s);
                row.push_back(TextTable::fmt(s));
            }
            table.addRow(row);
        }
        table.row("GM", geomean(gms[0]), geomean(gms[1]), geomean(gms[2]));
        table.print(std::cout);
        std::cout << "\n";
    }
    return session.finish();
}
