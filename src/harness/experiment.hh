/**
 * @file
 * Experiment harness shared by all bench binaries.
 *
 * Provides the paper's six baseline configurations (1/2/4 active cores
 * x 4KB/4MB pages, Sec. 5.1), workload/trace assembly (core 0 runs the
 * benchmark; other active cores run the cache-thrashing
 * micro-benchmark), and a memoising runner so figures that share
 * baselines do not re-simulate them.
 *
 * One job path: a JobSpec (benchmark, config, budget, warm-up sharing)
 * goes through run(JobSpec) or, for the farm and serve layers,
 * runJob(), which owns bounded retry and error-record construction.
 * The runner is built from RunnerOptions (options.hh), parsed once
 * from the environment and flags by the binaries that drive it.
 *
 * The runner is thread-safe: the sweep farm (sweep_farm.hh) and the
 * `bopsim --serve` front end call it from worker threads. A single
 * mutex guards the memo cache and record vector, and a per-key
 * OnceLatch makes concurrent run() calls for the same design point
 * simulate it exactly once (late arrivals block until the winner
 * commits). Shared warm-ups go through one warm-prefix store.
 */

#ifndef BOP_HARNESS_EXPERIMENT_HH
#define BOP_HARNESS_EXPERIMENT_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "harness/journal.hh"
#include "harness/json_report.hh"
#include "harness/options.hh"
#include "sim/config.hh"
#include "sim/system.hh"

namespace bop
{

/**
 * The paper's baseline: next-line L2 prefetcher, 5P L3 policy, DL1
 * stride prefetcher on. Any core count is accepted; beyond the paper's
 * 4-core chip the channel count is scaled so each channel keeps
 * serving at most 2 cores (8 cores -> 4 channels, 16 -> 8).
 */
SystemConfig baselineConfig(int cores, PageSize page);

/** All six (cores, page) baseline combinations, in paper order. */
std::vector<std::pair<int, PageSize>> baselineGrid();

/**
 * Core counts for contention/scaling studies: the paper's 1/2/4 plus
 * the beyond-paper 8 and 16 (Shakerinava et al., arXiv:2009.00715,
 * motivate revisiting prefetcher interference at server core counts).
 */
std::vector<int> scalingCoreCounts();

/** Human-readable label like "1-core/4KB". */
std::string gridLabel(int cores, PageSize page);

/** Unique key of a configuration (for memoisation). */
std::string configFingerprint(const SystemConfig &cfg);

/** Assemble traces: benchmark on core 0, thrashers elsewhere. */
std::vector<std::unique_ptr<TraceSource>>
makeTraces(const std::string &benchmark, const SystemConfig &cfg);

/** One design point: what one job simulates. */
struct JobSpec
{
    std::string benchmark;
    SystemConfig cfg;
    Budget budget;
    /** Warm-up prefix sharing: jobs with the same (benchmark, config,
     *  warmup) simulate the warmup once; later ones restore it. */
    bool share = false;
};

/**
 * "First arrival computes, later arrivals wait, a throw releases": the
 * one per-key latch behind the runner's memo and its warm-prefix store.
 */
class OnceLatch
{
  public:
    /**
     * Return @p find() once it is non-null. Otherwise the first caller
     * for @p key runs @p compute() without @p m held and returns
     * @p commit() of the result, while later callers wait and then look
     * again. A throw releases the key to a waiter and propagates.
     * @p find and @p commit run with @p m held.
     */
    template <typename Find, typename Compute, typename Commit>
    auto
    once(std::mutex &m, const std::string &key, Find find, Compute compute,
         Commit commit) -> decltype(find())
    {
        std::unique_lock<std::mutex> lk(m);
        for (;;) {
            if (auto found = find())
                return found;
            if (claimed.insert(key).second)
                break;
            cv.wait(lk);
        }
        lk.unlock();
        auto release = [&] {
            if (!lk.owns_lock())
                lk.lock();
            claimed.erase(key);
            cv.notify_all(); // waiters wake once lk is dropped
        };
        try {
            auto result = compute();
            release();
            return commit(std::move(result));
        } catch (...) {
            release();
            throw;
        }
    }

  private:
    std::condition_variable cv;
    std::set<std::string> claimed; ///< keys being computed right now
};

/** Memoising, thread-safe simulation runner. */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(RunnerOptions options = {})
        : opts(std::move(options))
    {
    }

    const RunnerOptions &options() const { return opts; }

    /** A job for @p benchmark under @p cfg with the runner's budget.
     *  It shares its warm-up exactly when a directory is set: one
     *  budget gives each prefix one memo key, so only a later process
     *  can reuse it. */
    JobSpec
    jobFor(const std::string &benchmark, const SystemConfig &cfg) const
    {
        return {benchmark, cfg, opts.budget, !opts.checkpointDir.empty()};
    }

    /** Run (or recall) one benchmark under one configuration with the
     *  runner's defaults: the figure convenience. */
    const RunStats &run(const std::string &benchmark,
                        const SystemConfig &cfg);

    /**
     * Run (or recall) one job and return its memoised record. Safe to
     * call concurrently: the in-flight latch guarantees each distinct
     * job simulates exactly once. A job that throws is not memoised.
     */
    const RunRecord &run(const JobSpec &job);

    /** Speedup of @p cfg over @p base for one benchmark (IPC ratio). */
    double speedup(const std::string &benchmark, const SystemConfig &cfg,
                   const SystemConfig &base);

    /** Geometric-mean speedup over a set of benchmarks. */
    double geomeanSpeedup(const std::vector<std::string> &benchmarks,
                          const SystemConfig &cfg,
                          const SystemConfig &base);

    /**
     * Run one farm or serve job to its final record, with bounded
     * retry: the job is memoised through run() when @p memoise is set
     * (serve) and simulated through simulateRecord() otherwise (the
     * farm commits in submission order itself). A failure whose kind
     * is transient (transientFaultKind(), "io") is retried in place
     * up to options().retries more times with exponential backoff;
     * any other failure, or the last transient one, becomes an error
     * record (RunRecord::errored()). The record carries @p jobIndex,
     * the worker count, the queue wait since @p submitted and the
     * attempts taken. Runs under a FaultScope for @p jobIndex.
     */
    RunRecord runJob(const JobSpec &job, long jobIndex,
                     std::chrono::steady_clock::time_point submitted,
                     bool memoise);

    /**
     * Replay the options' --resume journal into the memo, then attach
     * the --journal write-ahead journal (either may be unset). Replay
     * turns journaled success records into memo hits (flagged
     * journalReplayed) and both success and error records into
     * pending replays the farm commits verbatim instead of
     * re-simulating, so a killed sweep resumed under the same config
     * produces byte-identical final output (timing fields aside).
     * Budget drift is refused through the journal header; any other
     * config drift never matches the fingerprint-bearing memo key and
     * re-simulates. Throws on a refused or unreadable journal.
     * Returns the number of replayed entries.
     */
    std::size_t openJournals(std::ostream &diag);

    /**
     * Claim the pending replay for @p key, if any (last journal entry
     * wins). The farm calls this before considering simulation; a
     * claimed record is gone, so a key replays into the record stream
     * exactly once per resume.
     */
    bool consumeReplayed(const std::string &key, RunRecord &out);

    /**
     * Warmup prefixes actually simulated so far (each shared prefix
     * counts once, however many jobs consumed it). Only read this
     * when no jobs are in flight.
     */
    std::uint64_t prefixSimulations() const { return prefixSims; }

    /**
     * Memo and journal key of one job. The sharing marker keeps
     * warm-shared records from ever aliasing cold ones in the memo
     * cache (their stats are bit-identical, but their `checkpoint`
     * provenance field is not).
     */
    static std::string runKey(const JobSpec &job);

    /** Cached record for @p key, or nullptr (pointer stays valid). */
    const RunRecord *memoised(const std::string &key) const;

    /**
     * Next farm job index (monotone per runner). Reserved at
     * submission time so job_index depends only on submission order,
     * never on worker scheduling.
     */
    long reserveJobIndex();

    /**
     * Simulate one job without touching the memo or the record list:
     * the leaf the sweep farm runs on worker threads. Returns a record
     * with stats and wall clock filled in. A job that shares its
     * warm-up takes it from the warm-prefix store (warmPrefix());
     * restore bit-identity makes its stats equal a cold run's.
     */
    RunRecord simulateRecord(const JobSpec &job) const;

    /**
     * Commit a farm job: journal it (write-ahead, unless it was itself
     * replayed from the journal), append its record and, unless it is
     * an error record, memoise it under @p key. Failures are never
     * cached, so resubmitting the design point re-simulates it.
     */
    void commit(const std::string &key, RunRecord record);

    /**
     * One record per actual (non-memoised) simulation, in commit
     * order. Only read this when no jobs are in flight (after a farm
     * drain / worker join); the reference bypasses the runner lock.
     */
    const std::vector<RunRecord> &records() const { return runRecords; }

    /** Append a record produced outside run() (e.g. direct System use). */
    void addRecord(RunRecord record)
    {
        std::lock_guard<std::mutex> lk(m);
        runRecords.push_back(std::move(record));
    }

    /** Write all records to @p path as JSON (see json_report.hh). */
    bool writeJson(const std::string &path) const
    {
        std::lock_guard<std::mutex> lk(m);
        return writeRunRecordsFile(path, runRecords);
    }

  private:
    /** Warm-prefix store key. */
    static std::string prefixKey(const JobSpec &job);

    /** Build @p job's system cold in @p system, deadline armed. */
    void buildSystem(std::optional<System> &system,
                     const JobSpec &job) const;

    /**
     * The warm-prefix store: bring @p system, freshly built, to the
     * warm state of @p job's prefix. An entry lives in the options'
     * directory when one is set, and in memory only when none is or
     * the directory refused the save; a lookup tries memory, then the
     * directory. Only the first arrival for a prefix simulates it.
     */
    void warmPrefix(std::optional<System> &system, const JobSpec &job) const;

    /**
     * Restore @p system from the directory; false on a miss or a
     * refused entry. Header and CRC checks refuse before anything
     * applies, but a section whose layout does not match (an entry
     * from another build) is refused mid-restore, after earlier
     * sections applied; the system is then rebuilt cold.
     */
    bool loadPrefix(std::optional<System> &system, const JobSpec &job,
                    const std::string &pkey) const;

    /** Save to the directory; false when there is none or it refused. */
    bool savePrefix(const std::string &pkey,
                    const std::vector<std::uint8_t> &container) const;

    /** Directory entry path for a prefix key (FNV-1a name). */
    std::string prefixPath(const std::string &pkey) const;

    /** Journal-append one committed record; no-op when detached or
     *  when the record was itself replayed from the journal. */
    void journalCommit(const std::string &key, const RunRecord &record)
    {
        if (journal.isOpen() && !record.journalReplayed)
            journal.append(key, record);
    }

    const RunnerOptions opts;

    mutable std::mutex m;
    OnceLatch memo; ///< one simulation per run key
    std::map<std::string, RunRecord> cache;
    std::vector<RunRecord> runRecords;
    long nextJobIndex = 0;

    ResultJournal journal; ///< write-ahead record log (--journal)
    /** Journal entries awaiting their submission slot (--resume);
     *  consumeReplayed() pops them. */
    std::map<std::string, RunRecord> replayed;

    /** Mutable: simulateRecord() is const but takes turns on it. */
    mutable OnceLatch prefixLatch;
    /** Store entries kept in memory. Node-stable (never erased):
     *  restores read them outside the lock. */
    mutable std::map<std::string, std::vector<std::uint8_t>> prefixMemory;
    mutable std::atomic<std::uint64_t> prefixSims{0};
};

} // namespace bop

#endif // BOP_HARNESS_EXPERIMENT_HH
