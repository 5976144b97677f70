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
#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <variant>

#include "harness/experiment.hh"

namespace bop
{

/** How a field takes its value: a name (a flag's argument, a job
 *  line's string), a whole number, or a switch (a flag without a
 *  value; a job line's number, 0 = off). */
enum class FieldKind { Text, Whole, Switch };

/** A value as read: text, or a job line's number. */
using FieldValue = std::variant<std::string, double>;

/**
 * One settable field of a design point (a JobSpec): the serve job-line
 * key and the bopsim flag that set it, read by both front ends through
 * this row. A switch flag turns its field on, or off when spelled
 * `--no-...`.
 */
struct ConfigField
{
    const char *key;
    const char *flag; ///< nullptr: job lines only
    FieldKind kind;
    const char *metavar; ///< the value in usage text; nullptr: switch
    const char *help;
    /** Store @p value; false when the field does not take it. */
    bool (*set)(JobSpec &job, const FieldValue &value);
    std::string (*choices)() = nullptr; ///< a fixed vocabulary
    /** The one prefetcher that reads the field, if only one does. */
    std::optional<L2PrefetcherKind> onlyWith = std::nullopt;
};

/** Every settable field, in help order. */
std::span<const ConfigField> configFields();

/** The rows of configFields() a reader has set: bit i is row i. */
using FieldsGiven = std::uint32_t;

/** What bopsim and a job line start from: the paper's baseline with
 *  the BO prefetcher, and @p budget. */
JobSpec defaultJob(const Budget &budget);

/**
 * RunnerOptions::parseFlag for the design-point flags: store argv[i]'s
 * value into @p job and mark its row in @p given. Throws
 * std::invalid_argument naming the flag on a missing or bad value.
 */
bool parseConfigFlag(int argc, char **argv, int &i, JobSpec &job,
                     FieldsGiven &given);

/**
 * The first field in @p given that @p job's prefetcher does not read
 * (bo_* without "bo", offset without "fixed"), or nullptr. Checked
 * once every field is in, so their order does not matter.
 */
const ConfigField *unreadField(const JobSpec &job, FieldsGiven given);

/** bopsim --help's line for every design-point flag. */
void printConfigFieldUsage(std::ostream &os);

/**
 * Decode one job line into @p job through configFields(), the table
 * bopsim's flags read too; a line that leaves out its
 * budget takes @p defaults' budget, and it shares its warm-up only
 * when it says "checkpoint": "share" (no field, or "cold", runs cold). A
 * line that is not a flat JSON object, names an unknown field or
 * workload, carries a number that is not a whole number in its
 * field's range, or sets a field its prefetcher does not read returns
 * false with a diagnostic in @p error, so a typo never silently
 * simulates the wrong design point. Never throws.
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
