/**
 * @file
 * Experiment harness shared by all bench binaries.
 *
 * Provides the paper's six baseline configurations (1/2/4 active cores
 * x 4KB/4MB pages, Sec. 5.1), workload/trace assembly (core 0 runs the
 * benchmark; other active cores run the cache-thrashing
 * micro-benchmark), instruction budgets (overridable through the
 * BOP_WARMUP / BOP_INSTR environment variables), and a memoising runner
 * so figures that share baselines do not re-simulate them.
 *
 * The runner is thread-safe: the sweep farm (sweep_farm.hh) and the
 * `bopsim --serve` front end call it from worker threads. A single
 * mutex guards the memo cache and record vector, and a per-key
 * in-flight latch makes concurrent run() calls for the same design
 * point simulate it exactly once (late arrivals block until the
 * winner commits).
 */

#ifndef BOP_HARNESS_EXPERIMENT_HH
#define BOP_HARNESS_EXPERIMENT_HH

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "harness/journal.hh"
#include "harness/json_report.hh"
#include "sim/config.hh"
#include "sim/system.hh"

namespace bop
{

/** Instruction budgets for one simulation run. */
struct Budget
{
    std::uint64_t warmup = 100000;
    std::uint64_t measure = 400000;

    /** Defaults overridden by BOP_WARMUP / BOP_INSTR. */
    static Budget fromEnv();
};

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

/** Memoising, thread-safe simulation runner. */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(Budget budget_ = Budget::fromEnv())
        : budget(budget_), shareWarmup(sharingFromEnv()),
          jobTimeout(timeoutFromEnv()), retries_(retriesFromEnv()),
          retryBackoffBase(backoffFromEnv()), ckptDir(ckptDirFromEnv())
    {
    }

    /** Run (or recall) one benchmark under one configuration. */
    const RunStats &run(const std::string &benchmark,
                        const SystemConfig &cfg);

    /**
     * Same, with an explicit per-job budget (the --serve front end
     * carries budgets per job line) and the full memoised record.
     * Safe to call concurrently: the in-flight latch guarantees each
     * distinct (benchmark, config, budget) simulates exactly once.
     */
    const RunRecord &run(const std::string &benchmark,
                         const SystemConfig &cfg, const Budget &b);

    /** Same, with an explicit warmup-prefix-sharing choice for this
     *  job (overriding the runner-wide setting). */
    const RunRecord &run(const std::string &benchmark,
                         const SystemConfig &cfg, const Budget &b,
                         bool share_warmup);

    /** Speedup of @p cfg over @p base for one benchmark (IPC ratio). */
    double speedup(const std::string &benchmark, const SystemConfig &cfg,
                   const SystemConfig &base);

    /** Geometric-mean speedup over a set of benchmarks. */
    double geomeanSpeedup(const std::vector<std::string> &benchmarks,
                          const SystemConfig &cfg,
                          const SystemConfig &base);

    const Budget &budgets() const { return budget; }

    /**
     * Warmup-prefix sharing: when enabled, jobs sharing a (benchmark,
     * config, warmup budget) prefix simulate the warmup exactly once —
     * the first arrival saves an in-memory checkpoint at the
     * measurement boundary, later arrivals restore it and only pay
     * the measurement window. Bit-identity of checkpoint restore
     * (tests/test_checkpoint.cc) guarantees the resulting stats equal
     * a cold run's. Default: off, or the BOP_CKPT_SHARE environment
     * variable (unset/"0" = off, anything else = on).
     */
    void setCheckpointSharing(bool on) { shareWarmup = on; }
    bool checkpointSharing() const { return shareWarmup; }

    /**
     * Per-job wall-clock deadline in seconds (0 = none). A job still
     * simulating past it throws JobTimeout, which the farm/serve
     * layers convert into a per-job error record while the rest of
     * the batch keeps running. Default: off, or BOP_JOB_TIMEOUT
     * seconds; `bopsim --serve --job-timeout` sets it per session.
     */
    void setJobTimeout(double seconds) { jobTimeout = seconds; }
    double jobTimeoutSeconds() const { return jobTimeout; }

    /**
     * Bounded retry for transient failures (`--retries N` /
     * BOP_RETRIES): a job whose error kind is transient
     * (transientFaultKind(), currently "io") is re-enqueued through
     * the never-memoise path up to N more times with exponential
     * backoff; records carry the final `attempts` count. Deterministic
     * failure kinds (timeout/checkpoint/simulation) never retry —
     * docs/ROBUSTNESS.md has the decision table.
     */
    void setRetries(int n) { retries_ = n < 0 ? 0 : n; }
    int retries() const { return retries_; }

    /**
     * Backoff before retry attempt @p attempt (2 = first retry):
     * base * 2^(attempt-2) seconds, base 50 ms or BOP_RETRY_BACKOFF.
     */
    double retryBackoffSeconds(int attempt) const
    {
        double backoff = retryBackoffBase;
        for (int i = 2; i < attempt; ++i)
            backoff *= 2.0;
        return backoff;
    }

    /**
     * Attach a write-ahead result journal (`--journal FILE`): every
     * committed run/error record is appended with fsync-on-commit
     * framing before the farm acknowledges it (journal.hh). Throws on
     * open failure or a budget mismatch with an existing journal.
     */
    void attachJournal(const std::string &path)
    {
        journal.open(path, budget.warmup, budget.measure);
    }

    /**
     * Replay a journal into the memo (`--resume FILE`): journaled
     * success records become memo hits (flagged journalReplayed) and
     * both success and error records become pending replays the farm
     * commits verbatim instead of re-simulating, so a killed sweep
     * resumed under the same config produces byte-identical final
     * output (timing fields aside). Config drift is refused with a
     * named mismatch: budgets via the journal header, everything else
     * via the fingerprint-bearing memo key (a drifted design point
     * simply never matches and re-simulates). Returns the number of
     * replayed entries.
     */
    std::size_t resumeFromJournal(const std::string &path,
                                  std::ostream &diag);

    /**
     * Claim the pending replay for @p key, if any (last journal entry
     * wins). The farm calls this before considering simulation; a
     * claimed record is gone, so a key replays into the record stream
     * exactly once per resume.
     */
    bool consumeReplayed(const std::string &key, RunRecord &out);

    /** Entries loaded by resumeFromJournal() (consumed or not). */
    std::uint64_t replayedCount() const
    {
        std::lock_guard<std::mutex> lk(m);
        return replayCount;
    }

    /**
     * Disk-backed checkpoint cache directory (BOP_CKPT_DIR): shared
     * warmup prefixes are persisted atomically (tmp+fsync+rename)
     * under their (workload, config fingerprint, warmup budget) key
     * and reloaded across processes — the in-memory warmup-prefix
     * latch, promoted to disk. Corrupt or mismatched entries are
     * refused (validate-before-apply, byte-offset diagnostics) and
     * fall back to a cold warmup that overwrites the entry. Empty
     * disables. Only consulted when checkpoint sharing is on.
     */
    void setCheckpointDir(const std::string &dir) { ckptDir = dir; }
    const std::string &checkpointDir() const { return ckptDir; }

    /**
     * Warmup prefixes actually simulated so far (each shared prefix
     * counts once, however many jobs consumed it). Only read this
     * when no jobs are in flight.
     */
    std::uint64_t prefixSimulations() const
    {
        std::lock_guard<std::mutex> lk(m);
        return prefixSims;
    }

    /** Memo key of one design point (benchmark, config, budget). */
    static std::string runKey(const std::string &benchmark,
                              const SystemConfig &cfg, const Budget &b);

    /**
     * Memo key under this runner's own budget and sharing mode. The
     * sharing marker keeps warm-shared records from ever aliasing
     * cold ones in the memo cache (their stats are bit-identical,
     * but their `checkpoint` provenance field is not).
     */
    std::string
    runKey(const std::string &benchmark, const SystemConfig &cfg) const
    {
        return jobKey(benchmark, cfg, budget, shareWarmup);
    }

    /** Cached record for @p key, or nullptr (pointer stays valid). */
    const RunRecord *memoised(const std::string &key) const;

    /**
     * Next farm job index (monotone per runner). Reserved at
     * submission time so job_index depends only on submission order,
     * never on worker scheduling.
     */
    long reserveJobIndex();

    /**
     * Simulate one design point without touching any shared state:
     * the leaf the sweep farm runs on worker threads. Returns a
     * record with stats and wall clock filled in; memo/
     * record bookkeeping is the caller's job (commitJob()).
     */
    RunRecord simulateRecord(const std::string &benchmark,
                             const SystemConfig &cfg,
                             const Budget &b) const
    {
        return simulateRecord(benchmark, cfg, b, shareWarmup);
    }

    /** Same, with an explicit warmup-prefix-sharing choice. */
    RunRecord simulateRecord(const std::string &benchmark,
                             const SystemConfig &cfg, const Budget &b,
                             bool share_warmup) const;

    RunRecord
    simulateRecord(const std::string &benchmark,
                   const SystemConfig &cfg) const
    {
        return simulateRecord(benchmark, cfg, budget);
    }

    /** Commit a farm job: append its record and memoise it under key
     *  (and journal it, unless it was itself replayed from the
     *  journal). */
    void commitJob(const std::string &key, RunRecord record);

    /**
     * Commit a failed farm job: append its error record (see
     * RunRecord::errored()) WITHOUT memoising — failures are never
     * cached, so resubmitting the design point re-simulates it. The
     * key is journal bookkeeping only.
     */
    void commitError(const std::string &key, RunRecord record);

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
    /** Memo key including the warmup-sharing marker. */
    static std::string
    jobKey(const std::string &benchmark, const SystemConfig &cfg,
           const Budget &b, bool share_warmup)
    {
        return runKey(benchmark, cfg, b) +
               (share_warmup ? "##ckpt-share" : "");
    }

    /** Shared-warmup-prefix cache key. */
    static std::string prefixKey(const std::string &benchmark,
                                 const SystemConfig &cfg,
                                 const Budget &b);

    /** BOP_CKPT_SHARE default: unset or "0" = off. */
    static bool sharingFromEnv();

    /** BOP_JOB_TIMEOUT seconds, 0 when unset. */
    static double timeoutFromEnv();

    /** BOP_RETRIES, 0 when unset. */
    static int retriesFromEnv();

    /** BOP_RETRY_BACKOFF seconds, 0.05 when unset. */
    static double backoffFromEnv();

    /** BOP_CKPT_DIR, empty when unset. */
    static std::string ckptDirFromEnv();

    /** Journal-append one committed record; no-op when detached or
     *  when the record was itself replayed from the journal. */
    void journalCommit(const std::string &key, const RunRecord &record)
    {
        if (journal.isOpen() && !record.journalReplayed)
            journal.append(key, record);
    }

    /**
     * Disk checkpoint-cache entry for @p pkey, or false. Throws
     * CheckpointError (byte-offset diagnostics) on a corrupt or
     * key-mismatched entry — validate-before-apply, the caller falls
     * back to a cold warmup.
     */
    bool loadCacheEntry(const std::string &pkey,
                        std::vector<std::uint8_t> &container) const;

    /** Persist a warm prefix atomically (tmp+fsync+rename);
     *  best-effort — failures warn on stderr, the cache is only an
     *  optimisation. */
    void saveCacheEntry(const std::string &pkey,
                        const std::vector<std::uint8_t> &container) const;

    /** Cache-entry file path for a prefix key (FNV-1a name). */
    std::string cacheEntryPath(const std::string &pkey) const;

    Budget budget;
    bool shareWarmup = false;  ///< ctor reads BOP_CKPT_SHARE
    double jobTimeout = 0.0;   ///< ctor reads BOP_JOB_TIMEOUT
    int retries_ = 0;          ///< ctor reads BOP_RETRIES
    double retryBackoffBase = 0.05; ///< ctor reads BOP_RETRY_BACKOFF
    std::string ckptDir;       ///< ctor reads BOP_CKPT_DIR

    mutable std::mutex m;
    /** Latch release / cache commit; also the prefix latch. Mutable:
     *  simulateRecord() is const but waits on shared prefixes. */
    mutable std::condition_variable cv;
    std::set<std::string> inflight; ///< keys being simulated right now
    std::map<std::string, RunRecord> cache;
    std::vector<RunRecord> runRecords;
    long nextJobIndex = 0;

    ResultJournal journal; ///< write-ahead record log (--journal)
    /** Journal entries awaiting their submission slot (--resume);
     *  consumeReplayed() pops them. */
    std::map<std::string, RunRecord> replayed;
    std::uint64_t replayCount = 0;

    /**
     * Warm-state bytes per prefix key. Node-stable (std::map, never
     * erased): consumers hold pointers into it outside the lock.
     */
    mutable std::map<std::string, std::vector<std::uint8_t>> prefixCache;
    mutable std::set<std::string> prefixInflight;
    mutable std::uint64_t prefixSims = 0;
};

} // namespace bop

#endif // BOP_HARNESS_EXPERIMENT_HH
