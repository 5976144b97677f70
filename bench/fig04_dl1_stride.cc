/**
 * @file
 * Figure 4: impact of disabling the DL1 stride prefetcher (speedups
 * relative to the baselines; below 1 means the stride prefetcher was
 * helping). Expected shape: significant losses on the clean-stride
 * benchmarks (465.tonto the extreme case in the paper, up to -39%),
 * near 1.0 on irregular ones.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace bop;
    BenchSession session(argc, argv);
    session.header("Figure 4: disabling the DL1 stride prefetcher");
    printSpeedupFigure(session.farm, [](SystemConfig &cfg) {
        cfg.dl1StridePrefetcher = false;
    });
    return session.finish();
}
