/**
 * @file
 * `bopsim --serve`: a batch simulation service front end.
 *
 * Reads newline-delimited JSON job objects from a stream (stdin, or a
 * socket bridged to stdin via `nc`/`socat`), schedules them on the
 * sweep farm's worker pool with bounded in-flight backpressure, and
 * streams one run-record JSON object back per job as it completes.
 * This is the "thousands of submitted jobs" shape from the roadmap:
 * the reader thread blocks on TaskPool::submit when the backlog is
 * full, so memory stays bounded no matter how long the job stream is.
 *
 * Job object subset (flat strings/numbers, same grammar bench_diff
 * parses; only "workload" is required):
 *
 *   {"workload": "462.libquantum", "prefetcher": "bo", "cores": 2,
 *    "page": "4m", "seed": 7, "warmup": 20000, "instr": 80000}
 *
 * Responses carry `job_index` (the job's ordinal among accepted lines
 * — deterministic, scheduling-independent) and arrive in completion
 * order. Malformed lines are rejected with a diagnostic on @p diag
 * and an {"error", "kind": "parse", "line"} object on the response
 * stream; accepted jobs that fail mid-simulation answer with the
 * {"error", "kind", "detail", "job_index", "line"} error object
 * (docs/ROBUSTNESS.md). Either way the batch keeps going. Duplicate
 * design points within a batch simulate once (the runner's in-flight
 * latch) but still answer one record each.
 */

#ifndef BOP_HARNESS_SERVE_HH
#define BOP_HARNESS_SERVE_HH

#include <atomic>
#include <istream>
#include <ostream>
#include <string>

#include "harness/experiment.hh"

namespace bop
{

/** Parse an L2 prefetcher name (bopsim's --prefetcher vocabulary). */
bool parseL2PrefetcherName(const std::string &name,
                           L2PrefetcherKind &kind);

/**
 * Decode one job line into @p job. The field vocabulary mirrors
 * bopsim's CLI options (snake_cased); fields the line leaves out take
 * @p defaults' budget and sharing default, so a line's "checkpoint"
 * ("share" or "cold") is resolved against the runner default here. A
 * line that is not a flat JSON object, names an unknown field or
 * workload, or carries a number that is not a whole number in its
 * field's range returns false with a diagnostic in @p error, so a
 * typo never silently simulates the wrong design point. Never throws.
 */
bool parseServeJobLine(const std::string &line,
                       const RunnerOptions &defaults, JobSpec &job,
                       std::string &error);

/**
 * Run the service loop on runner.options().jobs workers (with its
 * backlog bound) until @p in hits EOF — or until @p stopRequested is
 * set (by a SIGINT/SIGTERM handler): the reader then stops accepting
 * lines — and drain gracefully: every accepted job answers. Each job
 * goes through ExperimentRunner::runJob(): a job that fails
 * (simulation error, deadline, injected fault) answers with the error
 * object {"error", "kind", "detail", "job_index", "attempts", "line"}
 * (docs/ROBUSTNESS.md) while the rest of the batch keeps running, and
 * a transient failure ("io") retries in place first. Always prints a
 * final summary line to @p diag: `serve: <A> accepted, <R> rejected,
 * <F> failed, <T> retried, <J> replayed` — T counts retry attempts, J
 * counts jobs answered from a journal replay (--resume) instead of
 * simulation — so unattended logs are auditable. Returns the number
 * of rejected or failed jobs (0 = clean batch; bopsim exits nonzero
 * otherwise).
 */
int serveLoop(std::istream &in, std::ostream &out,
              ExperimentRunner &runner, std::ostream &diag,
              const std::atomic<bool> *stopRequested = nullptr);

} // namespace bop

#endif // BOP_HARNESS_SERVE_HH
