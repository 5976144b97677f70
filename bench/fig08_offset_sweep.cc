/**
 * @file
 * Figure 8: fixed-offset sweep, D from 2 to 256, on the four analysed
 * benchmarks (433.milc, 459.GemsFDTD, 470.lbm, 462.libquantum), 4MB
 * pages, 1 active core, speedup relative to the next-line baseline;
 * the BO prefetcher's speedup is printed as a reference line.
 *
 * Expected shapes (paper Sec. 6): 433 peaks at multiples of 32 and
 * keeps benefiting up to very large offsets; 459 peaks near (but not
 * on) multiples of 29; 470 peaks at multiples of 5 with secondary
 * bumps at 5k+3; 462 improves steadily with offset size (timeliness).
 *
 * The sweep samples every second offset by default; set BOP_SWEEP_STEP
 * to change the sampling (1 = every offset).
 */

#include <cstdlib>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace bop;
    BenchSession session(argc, argv);
    session.header("Figure 8: fixed-offset sweep (4MB pages, 1 core)");

    int step = 2;
    if (const char *s = std::getenv("BOP_SWEEP_STEP"))
        step = std::max(1, std::atoi(s));

    const std::vector<std::string> benches = {
        "433.milc", "459.GemsFDTD", "470.lbm", "462.libquantum"};
    const SystemConfig base = baselineConfig(1, PageSize::FourMB);

    // Prefetch pass in serial-sweep order.
    for (const auto &bench : benches) {
        SystemConfig bo = base;
        bo.l2Prefetcher = L2PrefetcherKind::BestOffset;
        session.farm.submit(bench, bo);
        session.farm.submit(bench, base);
        for (int d = 2; d <= 256; d += step) {
            SystemConfig cfg = base;
            cfg.l2Prefetcher = L2PrefetcherKind::FixedOffset;
            cfg.fixedOffset = d;
            session.farm.submit(bench, cfg);
        }
    }
    session.farm.drain();

    for (const auto &bench : benches) {
        SystemConfig bo = base;
        bo.l2Prefetcher = L2PrefetcherKind::BestOffset;
        const double bo_speedup = session.runner.speedup(bench, bo, base);
        std::cout << "--- " << bench << " (BO reference: "
                  << TextTable::fmt(bo_speedup) << ") ---\n";

        TextTable table;
        table.row("offset", "speedup");
        for (int d = 2; d <= 256; d += step) {
            SystemConfig cfg = base;
            cfg.l2Prefetcher = L2PrefetcherKind::FixedOffset;
            cfg.fixedOffset = d;
            table.row(d, session.runner.speedup(bench, cfg, base));
        }
        table.print(std::cout);
        std::cout << "\n";
    }
    return session.finish();
}
