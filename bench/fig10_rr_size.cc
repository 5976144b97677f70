/**
 * @file
 * Figure 10: impact of the RR table size (geomean BO speedup for 32 to
 * 512 entries). Expected shape: effectiveness grows with size up to a
 * point; the paper sees a visible step from 128 to 256 entries at 4KB
 * pages (driven by 429.mcf) and little benefit beyond 256.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace bop;
    BenchSession session(argc, argv);
    session.header("Figure 10: RR table size sweep (geomean BO speedups)");

    GeomeanFigure fig;
    for (const std::size_t entries : {32u, 64u, 128u, 256u, 512u}) {
        fig.addVariant(session.farm, "RR=" + std::to_string(entries),
                       [entries](SystemConfig &cfg) {
                           cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
                           cfg.bo.rrEntries = entries;
                       });
    }
    fig.print();
    return session.finish();
}
