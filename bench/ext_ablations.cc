/**
 * @file
 * Extension ablations beyond the paper's figures (docs/WORKLOADS.md,
 * "Other substitutions"):
 *
 *  - BO degree-2 (best + second-best offset, the Sec. 4.3 discussion):
 *    the paper predicts extra requests without a filter may not pay.
 *  - BO with negative offsets enabled (Sec. 4.2: "we did not observe
 *    any benefit" — verified here).
 *  - A classical trained stream prefetcher (Sec. 2 background class)
 *    as an extra baseline: it needs stream detection and training,
 *    which offset prefetching deliberately avoids.
 *
 * All geomean speedups are relative to the next-line baselines, so
 * they are directly comparable with Figs. 7/11 output.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace bop;
    BenchSession session(argc, argv);
    session.header("Extension ablations: BO variants + stream prefetcher");

    GeomeanFigure fig;
    fig.addVariant(session.farm, "BO (paper)", [](SystemConfig &cfg) {
        cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
    });
    fig.addVariant(session.farm, "BO degree-2", [](SystemConfig &cfg) {
        cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
        cfg.bo.degree = 2;
    });
    fig.addVariant(session.farm, "BO +negative", [](SystemConfig &cfg) {
        cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
        cfg.bo.includeNegative = true;
    });
    fig.addVariant(session.farm, "BO maxoff=63", [](SystemConfig &cfg) {
        // Offset list capped at one 4KB page worth of lines.
        cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
        cfg.bo.maxOffset = 63;
    });
    fig.addVariant(session.farm, "stream pf", [](SystemConfig &cfg) {
        cfg.l2Prefetcher = L2PrefetcherKind::Stream;
    });
    fig.print();
    return session.finish();
}
