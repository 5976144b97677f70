/**
 * @file
 * Extension: multicore contention beyond the paper's 4-core ceiling.
 *
 * The paper's Figs. 11-13 stop at 4 cores; the server-prefetching
 * literature (Shakerinava et al., arXiv:2009.00715) shows prefetcher
 * interference changes qualitatively at higher core counts. This bench
 * runs the contention methodology (benchmark on core 0, cache
 * thrashers on every other active core) at 1/2/4/8/16 cores, scaling
 * the DRAM channel count with the topology (8 cores -> 4 channels,
 * 16 -> 8), and reports per-core progress so fairness is visible, not
 * just core-0 IPC.
 *
 * Usage: ext_scaling [--json PATH] [benchmark]  (default 462.libquantum)
 */

#include "bench_common.hh"

#include <algorithm>
#include <chrono>
#include <deque>

#include "sim/parallel.hh"
#include "sim/system.hh"

namespace
{

/** One scaling design point: stats plus the per-core retire counts
 *  the farmed RunRecord cannot carry. */
struct ScaleRun
{
    bop::SystemConfig cfg;
    int cores = 0;
    long jobIndex = -1;
    bop::RunStats stats;
    std::vector<std::uint64_t> retired;
    double wall = 0.0;
    double queueWait = 0.0;
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace bop;

    std::string bench = "462.libquantum";
    BenchSession session(argc, argv, &bench);
    session.header("Scaling study: BO under contention at 1-16 cores "
                   "(benchmark " + bench + " on core 0, thrashers elsewhere)");

    // Every design point here needs per-core retire counts, which the
    // sweep farm's RunRecords cannot carry — so farm the Systems out
    // on a TaskPool directly, into submission-ordered slots (the same
    // determinism contract: job_index at submit, output after drain).
    std::deque<ScaleRun> slots;
    {
        TaskPool pool(static_cast<unsigned>(session.runner.options().jobs));
        for (const int cores : scalingCoreCounts()) {
            SystemConfig cfg = baselineConfig(cores, PageSize::FourKB);
            cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
            slots.push_back(ScaleRun{});
            ScaleRun *slot = &slots.back();
            slot->cfg = cfg;
            slot->cores = cores;
            slot->jobIndex = session.runner.reserveJobIndex();
            const auto submitted = std::chrono::steady_clock::now();
            const Budget budget = session.runner.options().budget;
            pool.submit([slot, bench, budget, submitted] {
                slot->queueWait =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - submitted)
                        .count();
                System sys(slot->cfg, makeTraces(bench, slot->cfg));
                const auto t0 = std::chrono::steady_clock::now();
                slot->stats = sys.run(budget.warmup, budget.measure);
                slot->wall = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0)
                                 .count();
                for (int c = 0; c < sys.coreCount(); ++c)
                    slot->retired.push_back(sys.core(c).retired());
            });
        }
        pool.drain();
    }

    TextTable table;
    table.row("cores", "channels", "core-0 IPC", "BO offset",
              "DRAM/1k-instr", "per-core retired (min..max)");

    for (const ScaleRun &run : slots) {
        const RunStats &s = run.stats;
        RunRecord record{bench, run.cfg.describe(), s,
                         /*traceSource=*/"", run.wall};
        record.jobs = session.runner.options().jobs;
        record.jobIndex = run.jobIndex;
        record.queueWaitSeconds = run.queueWait;
        session.runner.addRecord(std::move(record));

        std::uint64_t lo = 0, hi = 0;
        for (std::size_t c = 0; c < run.retired.size(); ++c) {
            const std::uint64_t r = run.retired[c];
            lo = c == 0 ? r : std::min(lo, r);
            hi = c == 0 ? r : std::max(hi, r);
        }
        table.row(run.cores, run.cfg.numChannels, TextTable::fmt(s.ipc()),
                  s.boFinalOffset, TextTable::fmt(s.dramPer1kInstr(), 1),
                  std::to_string(lo) + ".." + std::to_string(hi));

        std::cout << "  [" << run.cores << " cores] per-core retired:";
        for (const std::uint64_t r : run.retired)
            std::cout << " " << r;
        std::cout << "\n";
    }
    std::cout << "\n";
    table.print(std::cout);
    std::cout << "\nExpected shape: core-0 IPC degrades as thrashers "
                 "join; the fairness-aware\ncontrollers keep every "
                 "thrasher progressing (no zero columns); DRAM traffic\n"
                 "per 1k core-0 instructions grows with contention.\n";
    return session.finish();
}
