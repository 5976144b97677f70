#include "harness/experiment.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>

#include <sys/stat.h>

#include "common/fault.hh"
#include "common/serializer.hh"
#include "dram/address_map.hh"
#include "harness/checkpoint.hh"
#include "prefetch/fdp.hh"
#include "prefetch/ghb.hh"
#include "prefetch/sandbox.hh"
#include "prefetch/stream_buffer.hh"
#include "trace/workloads.hh"

namespace bop
{

namespace
{

/** The value @p map holds under @p key, or nullptr. */
template <typename Map>
auto
lookup(Map &map, const std::string &key) -> decltype(&map.begin()->second)
{
    auto it = map.find(key);
    return it == map.end() ? nullptr : &it->second;
}

} // namespace

SystemConfig
baselineConfig(int cores, PageSize page)
{
    SystemConfig cfg;
    cfg.activeCores = cores;
    cfg.pageSize = page;
    cfg.l2Prefetcher = L2PrefetcherKind::NextLine;
    cfg.l3Policy = L3PolicyKind::P5;
    cfg.dl1StridePrefetcher = true;
    // Paper topologies keep the 2-channel chip (Table 1); beyond 4
    // cores, grow the channel count so each channel serves at most 2
    // cores (8 cores -> 4 channels, 16 -> 8).
    while (cfg.numChannels * 2 < cores &&
           cfg.numChannels < maxDramChannels)
        cfg.numChannels *= 2;
    return cfg;
}

std::vector<std::pair<int, PageSize>>
baselineGrid()
{
    return {{1, PageSize::FourKB}, {2, PageSize::FourKB},
            {4, PageSize::FourKB}, {1, PageSize::FourMB},
            {2, PageSize::FourMB}, {4, PageSize::FourMB}};
}

std::vector<int>
scalingCoreCounts()
{
    return {1, 2, 4, 8, 16};
}

std::string
gridLabel(int cores, PageSize page)
{
    std::ostringstream oss;
    oss << cores << "-core/" << enumName(page).label;
    return oss.str();
}

std::string
configFingerprint(const SystemConfig &cfg)
{
    // The other prefetchers run with their default configs and
    // bo-dpc2 with its fixed preset, but their segments stay in every
    // fingerprint so journals and stored warm prefixes keep matching.
    const BoConfig dpc2 = dpc2BoConfig();
    const SbpConfig sbp;
    const FdpConfig fdp;
    const GhbConfig ghb;
    const StreamBufferConfig sbuf;
    std::ostringstream oss;
    oss << cfg.describe() << "|seed=" << cfg.seed
        << "|bo=" << cfg.bo.rrEntries << "," << cfg.bo.scoreMax << ","
        << cfg.bo.roundMax << "," << cfg.bo.badScore << ","
        << cfg.bo.maxOffset << "," << cfg.bo.degree << ","
        << cfg.bo.includeNegative << ","
        << cfg.bo.adaptiveBadScore << "," << cfg.bo.coverageWeight
        << "|sbp=" << sbp.evalPeriod << "," << sbp.maxActiveOffsets
        << "|fdp=" << fdp.initialLevel << "," << fdp.sampleInterval
        << "|ghb=" << ghb.adaptiveZones << ","
        << ghb.zoneLineBitsCandidates.front() << "," << ghb.degree
        << "|sbuf=" << sbuf.buffers << "," << sbuf.depth
        << "|dpc2=" << dpc2.badScore << "," << dpc2.delayCycles
        << "|D=" << cfg.fixedOffset;
    // The Table 1 parameters enter only when they differ from the
    // defaults, so every default-timing fingerprint keeps its string
    // while a changed latency still splits memo keys and refuses a
    // checkpoint saved under other timing. Cache sizes and ways, MSHR
    // and fill-queue capacities are left to the checkpoint loaders,
    // which refuse any other value, so a checkpoint of shrunk caches
    // (tests/data/smoke.ckpt) keeps its fingerprint too.
    CacheParams defaultTiming;
    defaultTiming.dl1Bytes = cfg.caches.dl1Bytes;
    defaultTiming.dl1Ways = cfg.caches.dl1Ways;
    defaultTiming.dl1Mshrs = cfg.caches.dl1Mshrs;
    defaultTiming.l2Bytes = cfg.caches.l2Bytes;
    defaultTiming.l2Ways = cfg.caches.l2Ways;
    defaultTiming.l2FillQueue = cfg.caches.l2FillQueue;
    defaultTiming.l3Bytes = cfg.caches.l3Bytes;
    defaultTiming.l3Ways = cfg.caches.l3Ways;
    defaultTiming.l3FillQueue = cfg.caches.l3FillQueue;
    const CoreParams &core = cfg.core;
    if (!(core == CoreParams{}))
        oss << "|core=" << core.robSize << "," << core.dispatchWidth << ","
            << core.retireWidth << "," << core.loadPorts << ","
            << core.storePorts << "," << core.storeQueue << ","
            << core.loadQueue << "," << core.branchPenalty << ","
            << core.intLatency << "," << core.fpLatency;
    const CacheParams &c = cfg.caches;
    if (!(c == defaultTiming))
        oss << "|caches=" << c.dl1Bytes << "," << c.dl1Ways << ","
            << c.dl1Latency << "," << c.dl1Mshrs << "," << c.l2Bytes << ","
            << c.l2Ways << "," << c.l2Latency << "," << c.l2TagLatency
            << "," << c.l2FillQueue << "," << c.l3Bytes << "," << c.l3Ways
            << "," << c.l3Latency << "," << c.l3TagLatency << ","
            << c.l3FillQueue << "," << c.prefetchQueue;
    const DramTiming &d = cfg.dram;
    if (!(d == DramTiming{}))
        oss << "|dram=" << d.tCL << "," << d.tRCD << "," << d.tRP << ","
            << d.tRAS << "," << d.tCWL << "," << d.tRTP << "," << d.tWR
            << "," << d.tWTR << "," << d.tBURST << "," << d.busRatio;
    return oss.str();
}

std::vector<std::unique_ptr<TraceSource>>
makeTraces(const std::string &benchmark, const SystemConfig &cfg)
{
    std::vector<std::unique_ptr<TraceSource>> traces;
    traces.push_back(makeWorkload(benchmark, cfg.seed));
    for (int c = 1; c < cfg.activeCores; ++c)
        traces.push_back(makeThrasher(cfg.seed + static_cast<unsigned>(c)));
    return traces;
}

std::string
ExperimentRunner::runKey(const JobSpec &job)
{
    // Budgets are part of the design point: the --serve front end can
    // carry a different budget per job line, and memo hits must never
    // conflate a short run with a long one.
    return job.benchmark + "##" + configFingerprint(job.cfg) + "##" +
           std::to_string(job.budget.warmup) + "+" +
           std::to_string(job.budget.measure) +
           (job.share ? "##ckpt-share" : "");
}

std::string
ExperimentRunner::prefixKey(const JobSpec &job)
{
    // The warm state depends on everything the config fingerprint
    // covers (prefetcher choice included) plus the warmup length —
    // but NOT the measure budget, which is exactly what makes the
    // prefix shareable across jobs that differ only in it.
    return job.benchmark + "##" + configFingerprint(job.cfg) + "##warm" +
           std::to_string(job.budget.warmup);
}

std::string
ExperimentRunner::prefixPath(const std::string &pkey) const
{
    // FNV-1a 64 of the prefix key names the file; the key itself is
    // embedded in the entry and verified on load, so a hash collision
    // can never restore the wrong warm state.
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : pkey) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    char name[32];
    std::snprintf(name, sizeof name, "%016llx.bopckpt",
                  static_cast<unsigned long long>(h));
    return opts.checkpointDir + "/" + name;
}

void
ExperimentRunner::buildSystem(std::optional<System> &system,
                              const JobSpec &job) const
{
    system.emplace(job.cfg, makeTraces(job.benchmark, job.cfg));
    system->setJobDeadline(opts.jobTimeout);
}

bool
ExperimentRunner::loadPrefix(std::optional<System> &system,
                             const JobSpec &job,
                             const std::string &pkey) const
{
    std::vector<std::uint8_t> entry;
    if (opts.checkpointDir.empty() || !readFileBytes(prefixPath(pkey), entry))
        return false; // no entry: a plain miss, not an error
    try {
        std::vector<std::uint8_t> container =
            decodeCacheEntry(std::move(entry), pkey);
        // Fault injection (docs/ROBUSTNESS.md): a bit-rotted entry —
        // the flipped byte trips a section CRC before anything applies.
        if (!container.empty() &&
            FaultPlan::global().fireCounted("ckpt_cache_corrupt"))
            container[container.size() / 2] ^= 0xff;
        system->restoreCheckpointBytes(container);
        return true;
    } catch (const CheckpointError &e) {
        // The cold warm-up that follows overwrites the entry.
        std::fprintf(stderr,
                     "checkpoint-cache: refusing entry for \"%s\": %s — "
                     "falling back to cold warmup\n",
                     pkey.c_str(), e.what());
        buildSystem(system, job);
        return false;
    }
}

bool
ExperimentRunner::savePrefix(const std::string &pkey,
                             const std::vector<std::uint8_t> &container) const
{
    if (opts.checkpointDir.empty())
        return false;
    ::mkdir(opts.checkpointDir.c_str(), 0777); // best effort; EEXIST is fine
    try {
        writeFileAtomic(prefixPath(pkey), encodeCacheEntry(pkey, container));
        return true;
    } catch (const std::runtime_error &e) {
        std::fprintf(stderr,
                     "checkpoint-cache: %s (keeping the entry in memory)\n",
                     e.what());
        return false;
    }
}

void
ExperimentRunner::warmPrefix(std::optional<System> &system,
                             const JobSpec &job) const
{
    using Bytes = std::vector<std::uint8_t>;
    const std::string pkey = prefixKey(job);
    const Bytes *kept = prefixLatch.once(
        m, pkey, [&] { return lookup(prefixMemory, pkey); },
        [&] {
            // The bytes memory keeps: none when the directory has them.
            Bytes bytes;
            if (loadPrefix(system, job, pkey))
                return bytes;
            system->warmup(job.budget.warmup);
            ++prefixSims;
            bytes = system->saveCheckpointBytes();
            if (savePrefix(pkey, bytes))
                bytes.clear();
            return bytes;
        },
        [&](Bytes bytes) {
            if (!bytes.empty())
                prefixMemory.emplace(pkey, std::move(bytes));
            return nullptr; // the system is warm already
        });
    if (kept)
        system->restoreCheckpointBytes(*kept);
}

std::size_t
ExperimentRunner::openJournals(std::ostream &diag)
{
    std::vector<JournalEntry> entries;
    if (!opts.resumePath.empty()) {
        entries = ResultJournal::load(opts.resumePath, opts.budget.warmup,
                                      opts.budget.measure, diag);
        diag << "journal: replayed " << entries.size() << " record"
             << (entries.size() == 1 ? "" : "s") << " from '"
             << opts.resumePath << "'\n";
    }
    const std::size_t count = entries.size();
    {
        std::lock_guard<std::mutex> lk(m);
        for (JournalEntry &entry : entries) {
            entry.record.journalReplayed = true;
            if (!entry.record.errored())
                cache[entry.key] = entry.record; // memo hit for run()
            // Success and error records both land in the pending-
            // replay map (last entry wins) so the farm re-emits a
            // crashed sweep's record stream — errors included —
            // verbatim.
            replayed[entry.key] = std::move(entry.record);
        }
    }
    if (!opts.journalPath.empty())
        journal.open(opts.journalPath, opts.budget.warmup,
                     opts.budget.measure);
    return count;
}

bool
ExperimentRunner::consumeReplayed(const std::string &key, RunRecord &out)
{
    std::lock_guard<std::mutex> lk(m);
    auto it = replayed.find(key);
    if (it == replayed.end())
        return false;
    out = std::move(it->second);
    replayed.erase(it);
    return true;
}

const RunRecord *
ExperimentRunner::memoised(const std::string &key) const
{
    std::lock_guard<std::mutex> lk(m);
    return lookup(cache, key);
}

long
ExperimentRunner::reserveJobIndex()
{
    std::lock_guard<std::mutex> lk(m);
    return nextJobIndex++;
}

RunRecord
ExperimentRunner::simulateRecord(const JobSpec &job) const
{
    const SystemConfig &cfg = job.cfg;
    const Budget &b = job.budget;
    // Fault injection (docs/ROBUSTNESS.md): job_wedge, job_throw and
    // job_io target the job by its deterministic farm/serve index, carried
    // by the FaultScope the submitting layer opened on this thread.
    const long fjob = FaultScope::currentJob();
    auto fires = [fjob](const char *point) {
        return fjob >= 0 &&
               FaultPlan::global().fireAt(point,
                                          static_cast<std::uint64_t>(fjob));
    };
    if (fires("job_wedge")) {
        // A "wedged" simulation: no progress, but bounded so an armed
        // plan can never hang the process even when no deadline is
        // configured — past the limit the wedge reports itself as the
        // timeout the deadline would have produced.
        const double limit = opts.jobTimeout > 0.0 ? opts.jobTimeout : 2.0;
        const auto until =
            std::chrono::steady_clock::now() +
            std::chrono::duration<double>(limit);
        while (std::chrono::steady_clock::now() < until)
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        std::ostringstream oss;
        oss << "injected fault job_wedge: job " << fjob
            << " exceeded its " << limit << "s wall-clock deadline";
        throw JobTimeout(oss.str());
    }
    if (fires("job_throw"))
        throw std::runtime_error("injected fault job_throw at job " +
                                 std::to_string(fjob));
    // job_io is transient by definition (fireAt is exactly-once): a
    // retried attempt of the same job succeeds, which is what lets the
    // chaos battery pin the --retries path.
    if (fires("job_io"))
        throw TransientIoError("injected fault job_io at job " +
                               std::to_string(fjob));

    std::optional<System> system;
    buildSystem(system, job);
    const auto t0 = std::chrono::steady_clock::now();
    if (job.share)
        warmPrefix(system, job);
    else
        system->warmup(b.warmup);
    const RunStats stats = system->measure(b.measure);

    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    RunRecord record{job.benchmark, cfg.describe(), stats,
                     /*traceSource=*/"", wall};
    if (job.share)
        record.checkpoint = "warm-shared";

    if (std::getenv("BOP_VERBOSE")) {
        std::fprintf(stderr, "  [run] %-16s %-44s IPC=%.3f\n",
                     job.benchmark.c_str(), cfg.describe().c_str(),
                     stats.ipc());
    }
    return record;
}

void
ExperimentRunner::commit(const std::string &key, RunRecord record)
{
    // Write-ahead: the journal line is durable before the record is
    // acknowledged in memory, so a crash after this point loses
    // nothing and a crash before it merely re-simulates the job.
    journalCommit(key, record);
    std::lock_guard<std::mutex> lk(m);
    runRecords.push_back(record);
    if (!record.errored())
        cache.emplace(key, std::move(record));
}

const RunStats &
ExperimentRunner::run(const std::string &benchmark, const SystemConfig &cfg)
{
    return run(jobFor(benchmark, cfg)).stats;
}

const RunRecord &
ExperimentRunner::run(const JobSpec &job)
{
    const std::string key = runKey(job);
    return *memo.once(
        m, key, [&] { return lookup(cache, key); },
        [&] {
            RunRecord record = simulateRecord(job);
            // Write-ahead, still outside the memo lock.
            journalCommit(key, record);
            return record;
        },
        [&](RunRecord record) {
            runRecords.push_back(record);
            return &cache.emplace(key, std::move(record)).first->second;
        });
}

namespace
{

/** Backoff before retry attempt @p attempt (2 = first retry): 50 ms,
 *  doubling per further attempt. */
double
retryBackoffSeconds(int attempt)
{
    double backoff = 0.05;
    for (int i = 2; i < attempt; ++i)
        backoff *= 2.0;
    return backoff;
}

} // namespace

RunRecord
ExperimentRunner::runJob(const JobSpec &job, long jobIndex,
                         std::chrono::steady_clock::time_point submitted,
                         bool memoise)
{
    const double queueWait =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      submitted)
            .count();
    // job_wedge/job_throw/job_io target the job by this index.
    FaultScope scope(jobIndex);
    RunRecord record;
    for (int attempt = 1;; ++attempt) {
        try {
            // A replayed journal record is a memo hit here, and keeps
            // its journalReplayed flag for the caller to count.
            record = memoise ? run(job) : simulateRecord(job);
            record.queueWaitSeconds = queueWait;
        } catch (const std::exception &e) {
            // The runner released its latch on throw and never
            // memoises a failure, so a retry simulates afresh.
            if (transientFaultKind(faultKindOf(e)) &&
                attempt <= opts.retries) {
                std::this_thread::sleep_for(std::chrono::duration<double>(
                    retryBackoffSeconds(attempt + 1)));
                continue;
            }
            record = RunRecord{};
            record.workload = job.benchmark;
            record.config = job.cfg.describe();
            record.errorKind = faultKindOf(e);
            record.errorDetail = e.what();
        }
        record.jobs = opts.jobs;
        record.jobIndex = jobIndex;
        record.attempts = attempt;
        return record;
    }
}

double
ExperimentRunner::speedup(const std::string &benchmark,
                          const SystemConfig &cfg,
                          const SystemConfig &base)
{
    const double a = run(benchmark, cfg).ipc();
    const double b = run(benchmark, base).ipc();
    return b > 0.0 ? a / b : 0.0;
}

double
ExperimentRunner::geomeanSpeedup(const std::vector<std::string> &benchmarks,
                                 const SystemConfig &cfg,
                                 const SystemConfig &base)
{
    std::vector<double> speedups;
    speedups.reserve(benchmarks.size());
    for (const auto &bench : benchmarks)
        speedups.push_back(speedup(bench, cfg, base));
    return geomean(speedups);
}

} // namespace bop
