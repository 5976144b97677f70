/**
 * @file
 * Deterministic fault injection and job-failure vocabulary.
 *
 * Robustness code is only trustworthy when every failure path has
 * been executed, and real faults (a decompressor killed mid-stream, a
 * disk filling up under a checkpoint save, one wedged simulation in a
 * 200-job batch) are too rare and too messy to provoke on demand. The
 * FaultPlan singleton gives every such path a named trigger point:
 * arming `BOP_FAULT=point:N` (comma-separated for several points)
 * makes that point fire deterministically — and exactly once — so the
 * chaos battery (tests/test_chaos.cc) can drive each containment path
 * on every run.
 *
 * Two trigger disciplines, chosen per point:
 *
 *  - counted points fire on the Nth *hit* of the point (1-based),
 *    e.g. `ckpt_write_short:1` fails the first checkpoint save,
 *    `trace_read_eio:3` injects a transient read error on the third
 *    decompressor read;
 *  - indexed points fire for the job whose farm/serve `job_index`
 *    equals N (0-based; the surrounding FaultScope supplies it), e.g.
 *    `job_throw:2` makes job 2's simulation throw, `job_wedge:1`
 *    makes job 1 stop making progress until its deadline converts it
 *    into an error record.
 *
 * The armed points and their trigger sites are catalogued in
 * docs/ROBUSTNESS.md. An unarmed FaultPlan costs one relaxed atomic
 * load per trigger point — cheap enough to leave the hooks in
 * production code unconditionally.
 */

#ifndef BOP_COMMON_FAULT_HH
#define BOP_COMMON_FAULT_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>

namespace bop
{

/**
 * A job exceeded its wall-clock deadline (RunnerOptions::jobTimeout:
 * --job-timeout or BOP_JOB_TIMEOUT). Its own exception type so the harness layers can
 * classify the resulting error record as kind "timeout".
 */
class JobTimeout : public std::runtime_error
{
  public:
    explicit JobTimeout(const std::string &what_)
        : std::runtime_error(what_)
    {
    }
};

/**
 * A transient host-I/O failure (`trace_read_eio`-class: a flaky read
 * from a decompressor pipe, a recoverable EIO). Its own exception type
 * so the harness layers classify the error record as kind "io" — the
 * one kind the bounded-retry loop (`--retries`, docs/ROBUSTNESS.md
 * decision table) is allowed to retry.
 */
class TransientIoError : public std::runtime_error
{
  public:
    explicit TransientIoError(const std::string &what_)
        : std::runtime_error(what_)
    {
    }
};

/**
 * Error-record classification of an exception: "timeout" for
 * JobTimeout, "checkpoint" for CheckpointError, "io" for
 * TransientIoError, "simulation" for everything else. The strings are
 * part of the error-record grammar (docs/ROBUSTNESS.md) and must stay
 * stable.
 */
std::string faultKindOf(const std::exception &e);

/**
 * True for error-record kinds that represent weather, not bugs — the
 * only kinds bounded retry may retry. Currently just "io":
 * timeouts and checkpoint/simulation failures are deterministic and
 * would fail identically on every attempt.
 */
bool transientFaultKind(const std::string &kind);

/** Deterministic fault-injection plan (see file comment). */
class FaultPlan
{
  public:
    /** The process-wide plan; arms itself from BOP_FAULT on first
     *  use (throws std::runtime_error on a malformed spec). */
    static FaultPlan &global();

    /**
     * Replace the plan with @p spec: "point:N[,point:N...]" or "" to
     * disarm everything. Counters and fired flags reset. Throws
     * std::runtime_error naming the offending token on a bad spec.
     */
    void arm(const std::string &spec);

    /** Disarm every point. */
    void clear() { arm(""); }

    /**
     * Re-arm the plan from the BOP_FAULT environment variable (or
     * disarm everything when it is unset), resetting every hit counter
     * and exactly-once fired flag. Fired flags otherwise reset only at
     * process start, which would force multi-scenario test binaries
     * into env-var re-exec gymnastics to fire the same point twice.
     */
    void resetForTest();

    /** True when @p point is armed (fired or not). */
    bool armed(const std::string &point) const;

    /**
     * Counted trigger: increments the hit counter of @p point and
     * returns true when it reaches the armed value (1-based), exactly
     * once. Unarmed points return false without counting.
     */
    bool fireCounted(const std::string &point);

    /**
     * Indexed trigger: returns true when @p point is armed with value
     * @p ordinal (e.g. a job_index), exactly once per arming.
     */
    bool fireAt(const std::string &point, std::uint64_t ordinal);

  private:
    FaultPlan() = default;

    struct Arm
    {
        std::uint64_t target = 0;
        std::uint64_t hits = 0;
        bool fired = false;
    };

    mutable std::mutex m;
    std::map<std::string, Arm> plan;
    /// Fast path: trigger points skip the lock entirely when nothing
    /// is armed, so the hooks are free in production runs.
    std::atomic<bool> anyArmed{false};
};

/**
 * RAII marker of the job a worker thread is currently simulating, so
 * fault points deep in the stack (ExperimentRunner::simulateRecord,
 * checkpoint/trace code) can target jobs by their deterministic
 * farm/serve job_index rather than by scheduling-dependent hit order.
 */
class FaultScope
{
  public:
    explicit FaultScope(long job_index);
    ~FaultScope();

    FaultScope(const FaultScope &) = delete;
    FaultScope &operator=(const FaultScope &) = delete;

    /** Job index of the enclosing scope on this thread (-1 outside). */
    static long currentJob();

  private:
    long prev;
};

} // namespace bop

#endif // BOP_COMMON_FAULT_HH
