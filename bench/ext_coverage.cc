/**
 * @file
 * Extension: prefetch coverage / accuracy / timeliness metrics.
 *
 * Section 6 of the paper rests on a measurement it quotes but does not
 * plot: "the baseline next-line prefetcher yields a high prefetch
 * coverage on these 4 benchmarks (about 75% coverage for 433.milc and
 * 470.lbm, above 90% for 459.GemsFDTD and 462.libquantum). Yet, the
 * performance of next-line prefetching is quite suboptimal because
 * most prefetches are late."
 *
 * This bench regenerates that table for next-line, SBP and BO on the
 * memory-heavy benchmarks (Fig. 13's set): coverage stays high across
 * prefetchers on the streaming benchmarks, and the BO column's
 * *timeliness* is what separates it — exactly the paper's thesis.
 */

#include "bench_common.hh"

namespace
{

const char *
kindLabel(bop::L2PrefetcherKind kind)
{
    using K = bop::L2PrefetcherKind;
    switch (kind) {
      case K::NextLine:
        return "next-line";
      case K::Sandbox:
        return "SBP";
      case K::BestOffset:
        return "BO";
      default:
        return "?";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace bop;
    BenchSession session(argc, argv);
    session.header("Extension: coverage / accuracy / timeliness "
                   "(1-core, 4KB pages)");

    const SystemConfig base = baselineConfig(1, PageSize::FourKB);
    const L2PrefetcherKind kinds[] = {L2PrefetcherKind::NextLine,
                                      L2PrefetcherKind::Sandbox,
                                      L2PrefetcherKind::BestOffset};

    // Prefetch pass in serial-sweep order.
    for (const auto &bench : memoryHeavyBenchmarks()) {
        for (const auto kind : kinds) {
            SystemConfig cfg = base;
            cfg.l2Prefetcher = kind;
            session.farm.submit(bench, cfg);
        }
    }
    session.farm.drain();

    TextTable table;
    {
        std::vector<std::string> header = {"benchmark"};
        for (const auto kind : kinds) {
            const std::string k = kindLabel(kind);
            header.push_back(k + " cov");
            header.push_back(k + " acc");
            header.push_back(k + " tim");
        }
        table.addRow(header);
    }

    for (const auto &bench : memoryHeavyBenchmarks()) {
        std::vector<std::string> row = {bench};
        for (const auto kind : kinds) {
            SystemConfig cfg = base;
            cfg.l2Prefetcher = kind;
            const RunStats &s = session.runner.run(bench, cfg);
            row.push_back(TextTable::fmt(s.prefetchCoverage()));
            row.push_back(TextTable::fmt(s.prefetchAccuracy()));
            row.push_back(TextTable::fmt(s.prefetchTimeliness()));
        }
        table.addRow(row);
    }
    table.print(std::cout);

    std::cout << "\nSec. 6 quote check: next-line coverage is high "
                 "with very low timeliness\non the sequential "
                 "streamers (410/437/462), and BO's timeliness "
                 "column\nis decisively higher there — the paper's "
                 "thesis. Two workload\nartifacts to note (DESIGN.md "
                 "Sec. 1): the synthetic 433.milc/470.lbm\ntouch only "
                 "every 32nd/5th line, so next-line coverage measures "
                 "0 here\nwhere the paper quotes ~0.75 (real milc/lbm "
                 "touch neighbouring lines);\nthe offset-response "
                 "peaks of Fig. 8, which is what these generators\n"
                 "are shaped for, are unaffected.\n";
    return session.finish();
}
