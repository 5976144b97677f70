/**
 * @file
 * Figure 7: BO prefetching vs fixed-offset prefetching with D in 2..7
 * (geometric-mean speedup over the next-line baseline). Expected shape:
 * D=1 (i.e. 1.0) clearly not the best fixed offset; the best fixed
 * offset around 5; BO above or near the best fixed offset.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace bop;
    BenchSession session(argc, argv);
    session.header("Figure 7: BO vs fixed offsets 2..7 (geomean speedups)");

    GeomeanFigure fig;
    fig.addVariant(session.farm, "BO", [](SystemConfig &cfg) {
        cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
    });
    for (int d = 2; d <= 7; ++d) {
        fig.addVariant(session.farm, "D=" + std::to_string(d),
                       [d](SystemConfig &cfg) {
                           cfg.l2Prefetcher = L2PrefetcherKind::FixedOffset;
                           cfg.fixedOffset = d;
                       });
    }
    fig.print();
    return session.finish();
}
