/**
 * @file
 * Figure 9: impact of the BADSCORE throttling threshold (geomean BO
 * speedup for BADSCORE in {0, 1, 2, 5, 10}). Expected shape: flat for
 * small values, degrading as BADSCORE grows (on CPU2006 the few cases
 * where throttling fires — mostly 429.mcf — lose performance, Sec. 6.1).
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace bop;
    BenchSession session(argc, argv);
    session.header("Figure 9: BADSCORE sweep (geomean BO speedups)");

    GeomeanFigure fig;
    for (const int bad : {0, 1, 2, 5, 10}) {
        fig.addVariant(session.farm, "BADSCORE=" + std::to_string(bad),
                       [bad](SystemConfig &cfg) {
                           cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
                           cfg.bo.badScore = bad;
                       });
    }
    fig.print();
    return session.finish();
}
