/**
 * @file
 * Figure 6: Best-Offset prefetcher speedup relative to the next-line
 * baselines. Expected shapes: significant speedups on one third-plus of
 * the benchmarks, peaks on 470.lbm; larger average gains with 4MB pages
 * (large offsets exploitable) and with 2 active cores (longer L2 miss
 * latency favours larger offsets, Sec. 6).
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace bop;
    BenchSession session(argc, argv);
    session.header("Figure 6: BO speedup over the next-line baselines");
    printSpeedupFigure(session.farm, [](SystemConfig &cfg) {
        cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
    });
    return session.finish();
}
