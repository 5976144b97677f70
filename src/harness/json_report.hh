/**
 * @file
 * Machine-readable run records (ROADMAP: benchmark JSON output).
 *
 * Every simulation run can be summarised as one flat JSON object —
 * workload, configuration describe-string, IPC, prefetch
 * coverage/accuracy/timeliness and DRAM traffic — so CI can archive
 * bench output and track BENCH_* trajectories across PRs. The writer
 * emits a JSON array with one object per run; no external JSON
 * dependency is used.
 */

#ifndef BOP_HARNESS_JSON_REPORT_HH
#define BOP_HARNESS_JSON_REPORT_HH

#include <ostream>
#include <string>
#include <vector>

#include "common/stats.hh"

namespace bop
{

/** One simulation run, flattened for reporting. */
struct RunRecord
{
    std::string workload; ///< core-0 benchmark name
    std::string config;   ///< SystemConfig::describe() string
    RunStats stats;
    /** Trace provenance: a FileTrace::sourceTag() string (file name +
     *  on-disk format) for trace-driven runs; empty for the built-in
     *  generators (serialised as "generator") — keeps bench artifacts
     *  comparable across workload sources. */
    std::string traceSource;

    /**
     * Wall-clock seconds the simulation itself took (0 when not
     * measured, e.g. a hand-assembled record). Serialised together
     * with the derived engine-throughput rates (simulated Mcycles/s,
     * retired Minstr/s) so each record shows how fast it ran. All
     * three are host fields (hostTimingFields()) that bench_diff
     * ignores.
     */
    double wallSeconds = 0.0;

    /**
     * Sweep-farm worker count the run was scheduled under (1 =
     * serial). A host-side knob: simulated statistics and job_index
     * are identical for every value, so it is a host field that
     * bench_diff ignores.
     */
    int jobs = 1;

    /**
     * Position of this job in farm submission order (-1 when the run
     * did not go through the farm). Deterministic: depends only on
     * the submission sequence, never on worker scheduling.
     */
    long jobIndex = -1;

    /** Seconds between farm submission and simulation start. */
    double queueWaitSeconds = 0.0;

    /**
     * Simulation attempts this job took (bounded retry, `--retries`):
     * 1 for a first-try success, N when N-1 transient-I/O failures
     * were retried first. Serialised on success and error records
     * alike so unattended logs show which jobs rode out flaky I/O.
     */
    int attempts = 1;

    /**
     * True when this record was replayed from a write-ahead journal
     * (`--resume`) instead of simulated in this process. Host-side
     * bookkeeping only — never serialised (a resumed sweep's output
     * must stay byte-identical to an uninterrupted one) — so the
     * serve loop can count `J replayed` and the runner can skip
     * re-journaling a record the journal already holds.
     */
    bool journalReplayed = false;

    /**
     * Checkpoint provenance: "" for an ordinary cold run (serialised
     * as "none"), "saved" / "restored" for bopsim
     * --save-checkpoint/--restore-checkpoint runs, "warm-shared" when
     * the run consumed or produced a shared warmup prefix
     * (ExperimentRunner checkpoint sharing). Restore bit-identity
     * keeps the simulated statistics equal across all values; the
     * field says which warm-up path produced the record, and
     * bench_diff reports a provenance change like any other field.
     */
    std::string checkpoint{};

    /**
     * Failure classification when the job did not complete: "" for a
     * successful run; "timeout" / "checkpoint" / "simulation"
     * (faultKindOf()) when it failed, with the exception message in
     * errorDetail. A failed record serialises as the error object
     * {"error", "kind", "detail", "job_index", ...} instead of a
     * stats record (grammar: docs/ROBUSTNESS.md); its stats fields
     * are meaningless and never emitted.
     */
    std::string errorKind{};
    std::string errorDetail{};

    /** True when this record reports a failed job, not a run. */
    bool errored() const { return !errorKind.empty(); }

    /** Simulated megacycles per wall second (0 when not measured). */
    double
    mcyclesPerSecond() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(stats.cycles) / wallSeconds / 1e6
                   : 0.0;
    }

    /** Retired mega-instructions per wall second (0 when unmeasured). */
    double
    minstrPerSecond() const
    {
        return wallSeconds > 0.0 ? static_cast<double>(stats.instructions) /
                                       wallSeconds / 1e6
                                 : 0.0;
    }
};

/** Escape a string for inclusion in a JSON string literal. */
std::string jsonEscape(const std::string &s);

/** Serialise one record as a JSON object (no trailing newline). */
void writeRunRecord(std::ostream &os, const RunRecord &record);

/** Serialise records as a JSON array (pretty-printed, one per line). */
void writeRunRecords(std::ostream &os,
                     const std::vector<RunRecord> &records);

/**
 * Write records to @p path as a JSON array. Returns false (and prints
 * to stderr) when the file cannot be opened.
 */
bool writeRunRecordsFile(const std::string &path,
                         const std::vector<RunRecord> &records);

} // namespace bop

#endif // BOP_HARNESS_JSON_REPORT_HH
