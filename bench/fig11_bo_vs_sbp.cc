/**
 * @file
 * Figure 11: BO vs SBP geometric-mean speedups relative to the
 * next-line baselines. Expected shape: both above 1; BO above SBP in
 * every configuration (timeliness-aware offset selection).
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace bop;
    BenchSession session(argc, argv);
    session.header("Figure 11: BO vs SBP (geomean speedups)");

    GeomeanFigure fig;
    fig.addVariant(session.farm, "BO", [](SystemConfig &cfg) {
        cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
    });
    fig.addVariant(session.farm, "SBP", [](SystemConfig &cfg) {
        cfg.l2Prefetcher = L2PrefetcherKind::Sandbox;
    });
    fig.print();
    return session.finish();
}
