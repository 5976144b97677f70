/**
 * @file
 * Extension: the paper's two future-work directions (Sec. 7),
 * implemented and measured.
 *
 *  1. Adaptive BADSCORE — "Future work may try to adjust dynamically
 *     the throttling parameter." BO with the feedback-driven threshold
 *     (doubles on useless-dominated phases, decays on healthy ones).
 *  2. Hybrid timeliness/coverage scoring — "striving for prefetch
 *     timeliness is not always optimal". BO giving half/equal credit
 *     to covering-but-late offsets; 462.libquantum is the motivating
 *     case (Sec. 6: the best offsets by coverage are mid-range, but
 *     pure timeliness scoring picks very large ones).
 *
 * The per-benchmark section prints the three benchmarks the paper's
 * throttling/timeliness discussions single out.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace bop;
    BenchSession session(argc, argv);
    session.header("Extension: Sec. 7 future-work variants (GM speedup vs "
                   "next-line baseline)");

    const auto bo = [](SystemConfig &cfg) {
        cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
    };
    const auto bo_adaptive = [](SystemConfig &cfg) {
        cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
        cfg.bo.adaptiveBadScore = true;
    };
    const auto bo_cov1 = [](SystemConfig &cfg) {
        cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
        cfg.bo.coverageWeight = 1;
    };
    const auto bo_cov2 = [](SystemConfig &cfg) {
        cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
        cfg.bo.coverageWeight = 2;
    };

    GeomeanFigure fig;
    fig.addVariant(session.farm, "BO (paper)", bo);
    fig.addVariant(session.farm, "BO adaptive-BS", bo_adaptive);
    fig.addVariant(session.farm, "BO cov-half", bo_cov1);
    fig.addVariant(session.farm, "BO cov-equal", bo_cov2);
    fig.print();

    // The benchmarks the paper's Sec. 6 discussion singles out:
    // 462.libquantum (timeliness-vs-coverage), 429.mcf (throttling),
    // 433.milc (large offsets — a regression canary for the hybrid).
    std::cout << "\nPer-benchmark speedups (1-core, 4MB pages):\n";
    TextTable table;
    table.addRow({"benchmark", "BO", "BO adaptive-BS", "BO cov-half",
                  "BO cov-equal"});
    const SystemConfig base = baselineConfig(1, PageSize::FourMB);
    for (const std::string bench :
         {"462.libquantum", "429.mcf", "433.milc"}) {
        std::vector<std::string> row = {bench};
        for (const auto &variant :
             {+bo, +bo_adaptive, +bo_cov1, +bo_cov2}) {
            SystemConfig cfg = base;
            variant(cfg);
            row.push_back(
                TextTable::fmt(session.runner.speedup(bench, cfg, base)));
        }
        table.addRow(row);
    }
    table.print(std::cout);

    std::cout << "\nExpected shape: coverage credit helps 462 (mid-"
                 "range offsets win back\ncoverage) without hurting "
                 "433's large-offset peaks; the adaptive\nthreshold "
                 "tracks the paper's observation that BADSCORE wants "
                 "to be\nsmall on CPU2006 (so it should sit near the "
                 "static optimum).\n";
    return session.finish();
}
