/**
 * @file
 * Figure 5: impact of disabling the L2 next-line prefetcher (speedups
 * relative to the baselines; below 1 means next-line was helping).
 * Expected shape: substantial losses on streaming benchmarks — the
 * baseline next-line prefetcher is already very effective (Sec. 5.6).
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace bop;
    BenchSession session(argc, argv);
    session.header("Figure 5: disabling the L2 next-line prefetcher");
    printSpeedupFigure(session.farm, [](SystemConfig &cfg) {
        cfg.l2Prefetcher = L2PrefetcherKind::None;
    });
    return session.finish();
}
