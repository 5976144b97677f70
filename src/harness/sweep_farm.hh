/**
 * @file
 * Job-queue sweep engine over ExperimentRunner.
 *
 * A figure sweep is hundreds of independent (benchmark, config)
 * design points; each System is self-contained and deterministic, so
 * they parallelise perfectly at job granularity. SweepFarm accepts
 * submissions, deduplicates them through the runner's memo key, fans
 * unique jobs out across a TaskPool, and commits the resulting
 * RunRecords in submission order — so the runner's JSON output is
 * byte-identical to a serial sweep for every worker count (timing
 * fields aside).
 *
 * Determinism contract:
 *  - job_index is reserved at submission time, before any worker
 *    touches the job, so it depends only on the submission sequence;
 *  - records are committed at drain() in submission order, never in
 *    completion order;
 *  - with one worker (options().jobs == 1) each submission runs
 *    inline (no pool), which is exactly the old serial sweep;
 *  - a job whose simulation throws commits an error record (same
 *    job_index, same submission-order slot — docs/ROBUSTNESS.md) and
 *    is never memoised; every other job completes unaffected, so the
 *    surviving records stay byte-identical to a fault-free sweep;
 *  - a design point the runner replayed from a write-ahead journal
 *    (--resume) commits its journaled record verbatim into its
 *    submission slot without simulating — job indices still advance,
 *    so the un-journaled remainder of the sweep lands on exactly the
 *    indices an uninterrupted run would have given it;
 *  - every job runs through ExperimentRunner::runJob(), which retries
 *    a transient failure ("io") in place, on the same worker, up to
 *    options().retries more times (records carry `attempts`) and
 *    turns any other failure into the error record.
 *
 * Usage: submit the whole sweep (a "prefetch pass"), drain(), then
 * compute derived numbers (speedups, geomeans) through the runner's
 * now-warm memo cache.
 */

#ifndef BOP_HARNESS_SWEEP_FARM_HH
#define BOP_HARNESS_SWEEP_FARM_HH

#include <chrono>
#include <deque>
#include <memory>
#include <set>
#include <string>

#include "harness/experiment.hh"
#include "sim/parallel.hh"

namespace bop
{

/** Deduplicating, order-preserving parallel sweep executor. */
class SweepFarm
{
  public:
    /** Schedules on @p runner's options().jobs workers (1 = run
     *  inline, serially) with its options().backlog in-flight bound;
     *  the runner is the shared memo/record store and outlives the
     *  farm. */
    explicit SweepFarm(ExperimentRunner &runner) : runner_(runner) {}
    ~SweepFarm(); ///< drains outstanding jobs

    SweepFarm(const SweepFarm &) = delete;
    SweepFarm &operator=(const SweepFarm &) = delete;

    ExperimentRunner &runner() { return runner_; }

    /**
     * Submit one design point under the runner's budget. Duplicates
     * (already memoised, or already submitted to this farm) are
     * dropped — a design point never simulates twice. Blocks when the
     * pool backlog is full.
     */
    void submit(const std::string &benchmark, const SystemConfig &cfg);

    /**
     * Wait for all submitted jobs, then commit their records to the
     * runner in submission order. After drain() every submitted
     * design point is memoised, so derived lookups through
     * ExperimentRunner::run() are pure cache hits.
     */
    void drain();

  private:
    struct Slot
    {
        std::string key;
        JobSpec job;
        long jobIndex = -1;
        std::chrono::steady_clock::time_point submitted;
        RunRecord record;
    };

    ExperimentRunner &runner_;
    std::unique_ptr<TaskPool> pool; ///< null until a pooled job
    /** Deque for reference stability: workers fill earlier slots
     *  while submit() keeps appending. Drained in order. */
    std::deque<Slot> slots;
    std::set<std::string> submitted; ///< keys queued this farm
};

} // namespace bop

#endif // BOP_HARNESS_SWEEP_FARM_HH
