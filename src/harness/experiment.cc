#include "harness/experiment.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/stat.h>
#include <unistd.h>

#include "common/fault.hh"
#include "common/serializer.hh"
#include "dram/address_map.hh"
#include "trace/workloads.hh"

namespace bop
{

Budget
Budget::fromEnv()
{
    Budget b;
    if (const char *w = std::getenv("BOP_WARMUP"))
        b.warmup = std::strtoull(w, nullptr, 10);
    if (const char *m = std::getenv("BOP_INSTR"))
        b.measure = std::strtoull(m, nullptr, 10);
    return b;
}

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
    oss << cores << "-core/"
        << (page == PageSize::FourKB ? "4KB" : "4MB");
    return oss.str();
}

std::string
configFingerprint(const SystemConfig &cfg)
{
    std::ostringstream oss;
    oss << cfg.describe() << "|seed=" << cfg.seed
        << "|bo=" << cfg.bo.rrEntries << "," << cfg.bo.scoreMax << ","
        << cfg.bo.roundMax << "," << cfg.bo.badScore << ","
        << cfg.bo.maxOffset << "," << cfg.bo.degree << ","
        << cfg.bo.includeNegative << ","
        << cfg.bo.adaptiveBadScore << "," << cfg.bo.coverageWeight
        << "|sbp=" << cfg.sbp.evalPeriod << "," << cfg.sbp.maxActiveOffsets
        << "|fdp=" << cfg.fdp.initialLevel << "," << cfg.fdp.sampleInterval
        << "|ghb=" << cfg.ghb.adaptiveZones << ","
        << cfg.ghb.zoneLineBitsCandidates.front() << "," << cfg.ghb.degree
        << "|sbuf=" << cfg.streamBuf.buffers << "," << cfg.streamBuf.depth
        << "|dpc2=" << cfg.boDpc2.badScore << ","
        << cfg.boDpc2.delayCycles
        << "|D=" << cfg.fixedOffset;
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
ExperimentRunner::runKey(const std::string &benchmark,
                         const SystemConfig &cfg, const Budget &b)
{
    // Budgets are part of the design point: the --serve front end can
    // carry a different budget per job line, and memo hits must never
    // conflate a short run with a long one.
    return benchmark + "##" + configFingerprint(cfg) + "##" +
           std::to_string(b.warmup) + "+" + std::to_string(b.measure);
}

std::string
ExperimentRunner::prefixKey(const std::string &benchmark,
                            const SystemConfig &cfg, const Budget &b)
{
    // The warm state depends on everything the config fingerprint
    // covers (prefetcher choice included) plus the warmup length —
    // but NOT the measure budget, which is exactly what makes the
    // prefix shareable across jobs that differ only in it.
    return benchmark + "##" + configFingerprint(cfg) + "##warm" +
           std::to_string(b.warmup);
}

bool
ExperimentRunner::sharingFromEnv()
{
    const char *v = std::getenv("BOP_CKPT_SHARE");
    return v != nullptr && *v != '\0' && std::string(v) != "0";
}

double
ExperimentRunner::timeoutFromEnv()
{
    const char *v = std::getenv("BOP_JOB_TIMEOUT");
    return v != nullptr ? std::strtod(v, nullptr) : 0.0;
}

int
ExperimentRunner::retriesFromEnv()
{
    const char *v = std::getenv("BOP_RETRIES");
    const int n = v != nullptr ? std::atoi(v) : 0;
    return n < 0 ? 0 : n;
}

double
ExperimentRunner::backoffFromEnv()
{
    const char *v = std::getenv("BOP_RETRY_BACKOFF");
    return v != nullptr ? std::strtod(v, nullptr) : 0.05;
}

std::string
ExperimentRunner::ckptDirFromEnv()
{
    const char *v = std::getenv("BOP_CKPT_DIR");
    return v != nullptr ? v : "";
}

std::string
ExperimentRunner::cacheEntryPath(const std::string &pkey) const
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
    return ckptDir + "/" + name;
}

namespace
{
constexpr char cacheMagic[8] = {'B', 'O', 'P', 'C', 'A', 'C', 'H', '1'};
} // namespace

bool
ExperimentRunner::loadCacheEntry(const std::string &pkey,
                                 std::vector<std::uint8_t> &container) const
{
    const std::string path = cacheEntryPath(pkey);
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false; // no entry: a plain cache miss, not an error
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());

    // Validate everything before handing anything to the caller; a
    // refused entry falls back to cold warmup (and is overwritten by
    // the fresh save), never restored.
    if (bytes.size() < sizeof cacheMagic + 4)
        throw CheckpointError("checkpoint-cache entry '" + path +
                                  "' truncated (" +
                                  std::to_string(bytes.size()) + " bytes)",
                              bytes.size());
    if (std::memcmp(bytes.data(), cacheMagic, sizeof cacheMagic) != 0)
        throw CheckpointError("checkpoint-cache entry '" + path +
                                  "' has bad magic",
                              0);
    std::uint32_t keyLen = 0;
    std::memcpy(&keyLen, bytes.data() + sizeof cacheMagic, 4);
    const std::size_t keyOff = sizeof cacheMagic + 4;
    if (keyLen > bytes.size() - keyOff)
        throw CheckpointError("checkpoint-cache entry '" + path +
                                  "' key length " +
                                  std::to_string(keyLen) +
                                  " overruns the file",
                              sizeof cacheMagic);
    const std::string storedKey(
        reinterpret_cast<const char *>(bytes.data() + keyOff), keyLen);
    if (storedKey != pkey)
        throw CheckpointError("checkpoint-cache entry '" + path +
                                  "' is keyed for \"" + storedKey +
                                  "\", not \"" + pkey + "\"",
                              keyOff);
    container.assign(bytes.begin() +
                         static_cast<std::ptrdiff_t>(keyOff + keyLen),
                     bytes.end());
    // Fault injection (docs/ROBUSTNESS.md): a bit-rotted entry — the
    // flipped byte trips the container's section CRC inside
    // restoreCheckpointBytes, which must refuse before applying.
    if (!container.empty() &&
        FaultPlan::global().fireCounted("ckpt_cache_corrupt"))
        container[container.size() / 2] ^= 0xff;
    return true;
}

void
ExperimentRunner::saveCacheEntry(
    const std::string &pkey,
    const std::vector<std::uint8_t> &container) const
{
    ::mkdir(ckptDir.c_str(), 0777); // best effort; EEXIST is fine
    const std::string path = cacheEntryPath(pkey);
    const std::string tmp =
        path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f) {
        std::fprintf(stderr,
                     "checkpoint-cache: cannot write '%s' (cache "
                     "disabled for this entry)\n",
                     tmp.c_str());
        return;
    }
    const std::uint32_t keyLen =
        static_cast<std::uint32_t>(pkey.size());
    bool ok = std::fwrite(cacheMagic, 1, sizeof cacheMagic, f) ==
                  sizeof cacheMagic &&
              std::fwrite(&keyLen, 1, 4, f) == 4 &&
              std::fwrite(pkey.data(), 1, pkey.size(), f) == pkey.size() &&
              std::fwrite(container.data(), 1, container.size(), f) ==
                  container.size() &&
              std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
    ok = (std::fclose(f) == 0) && ok;
    // Atomic publish: the entry appears under its final name only
    // complete and fsynced, so a crashed writer leaves nothing a
    // reader could mistake for a checkpoint (same discipline as
    // System::saveCheckpoint).
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        std::fprintf(stderr,
                     "checkpoint-cache: failed to persist '%s' "
                     "(continuing without)\n",
                     path.c_str());
    }
}

std::size_t
ExperimentRunner::resumeFromJournal(const std::string &path,
                                    std::ostream &diag)
{
    std::vector<JournalEntry> entries =
        ResultJournal::load(path, budget.warmup, budget.measure, diag);
    std::lock_guard<std::mutex> lk(m);
    for (JournalEntry &entry : entries) {
        entry.record.journalReplayed = true;
        if (!entry.record.errored())
            cache[entry.key] = entry.record; // memo hit for run()
        // Success and error records both land in the pending-replay
        // map (last entry wins) so the farm re-emits a crashed
        // sweep's record stream — errors included — verbatim.
        replayed[entry.key] = std::move(entry.record);
    }
    replayCount += entries.size();
    diag << "journal: replayed " << entries.size() << " record"
         << (entries.size() == 1 ? "" : "s") << " from '" << path
         << "'\n";
    return entries.size();
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
    auto it = cache.find(key);
    return it == cache.end() ? nullptr : &it->second;
}

long
ExperimentRunner::reserveJobIndex()
{
    std::lock_guard<std::mutex> lk(m);
    return nextJobIndex++;
}

RunRecord
ExperimentRunner::simulateRecord(const std::string &benchmark,
                                 const SystemConfig &cfg,
                                 const Budget &b,
                                 bool share_warmup) const
{
    // Fault injection (docs/ROBUSTNESS.md): job_wedge and job_throw
    // target the job by its deterministic farm/serve index, carried
    // by the FaultScope the submitting layer opened on this thread.
    const long fjob = FaultScope::currentJob();
    FaultPlan &faults = FaultPlan::global();
    if (fjob >= 0 &&
        faults.fireAt("job_wedge", static_cast<std::uint64_t>(fjob))) {
        // A "wedged" simulation: no progress, but bounded so an armed
        // plan can never hang the process even when no deadline is
        // configured — past the limit the wedge reports itself as the
        // timeout the deadline would have produced.
        const double limit = jobTimeout > 0.0 ? jobTimeout : 2.0;
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
    auto throwInjected = [&faults, fjob] {
        if (fjob >= 0 &&
            faults.fireAt("job_throw",
                          static_cast<std::uint64_t>(fjob))) {
            throw std::runtime_error("injected fault job_throw at job " +
                                     std::to_string(fjob));
        }
        if (fjob >= 0 &&
            faults.fireAt("job_io", static_cast<std::uint64_t>(fjob))) {
            // Transient by definition (fireAt is exactly-once): a
            // retried attempt of the same job succeeds, which is what
            // lets the chaos battery pin the --retries path.
            throw TransientIoError("injected fault job_io at job " +
                                   std::to_string(fjob));
        }
    };

    System system(cfg, makeTraces(benchmark, cfg));
    system.setJobDeadline(jobTimeout);
    const auto t0 = std::chrono::steady_clock::now();

    RunStats stats;
    if (!share_warmup) {
        throwInjected();
        stats = system.run(b.warmup, b.measure);
    } else {
        // Shared warmup prefix: the first arrival for this (benchmark,
        // config, warmup) prefix simulates the warmup and publishes
        // the warm state as an in-memory checkpoint; later arrivals
        // restore it and pay only the measurement window. Restore
        // bit-identity makes both paths produce identical stats.
        const std::string pkey = prefixKey(benchmark, cfg, b);
        const std::vector<std::uint8_t> *bytes = nullptr;
        bool producer = false;
        {
            std::unique_lock<std::mutex> lk(m);
            for (;;) {
                auto it = prefixCache.find(pkey);
                if (it != prefixCache.end()) {
                    bytes = &it->second;
                    break;
                }
                if (prefixInflight.insert(pkey).second) {
                    producer = true;
                    break;
                }
                // Another worker is simulating this prefix: wait for
                // its publication instead of duplicating the warmup.
                cv.wait(lk);
            }
        }
        if (producer) {
            try {
                // Inside the try: an injected producer throw must
                // release the prefix latch exactly like a real warmup
                // failure, so waiters retry as producers (falling
                // back to a cold warmup) instead of deadlocking.
                throwInjected();
                bool fromDisk = false;
                std::vector<std::uint8_t> warm;
                if (!ckptDir.empty()) {
                    // Disk-backed prefix cache (BOP_CKPT_DIR): another
                    // process may have paid this warmup already.
                    // Validate-before-apply: a refused entry leaves
                    // the System untouched, so the cold-warmup
                    // fallback below starts from pristine state.
                    try {
                        std::vector<std::uint8_t> entry;
                        if (loadCacheEntry(pkey, entry)) {
                            system.restoreCheckpointBytes(entry);
                            warm = std::move(entry);
                            fromDisk = true;
                        }
                    } catch (const CheckpointError &e) {
                        std::fprintf(
                            stderr,
                            "checkpoint-cache: refusing entry for "
                            "\"%s\": %s — falling back to cold "
                            "warmup\n",
                            pkey.c_str(), e.what());
                    }
                }
                if (!fromDisk) {
                    system.warmup(b.warmup);
                    warm = system.saveCheckpointBytes();
                    if (!ckptDir.empty())
                        saveCacheEntry(pkey, warm); // overwrites a
                                                    // refused entry
                }
                std::lock_guard<std::mutex> lk(m);
                prefixCache.emplace(pkey, std::move(warm));
                prefixInflight.erase(pkey);
                if (!fromDisk)
                    ++prefixSims;
                cv.notify_all();
            } catch (...) {
                // Release the prefix latch so waiters retry (and hit
                // the same error themselves) instead of hanging.
                std::lock_guard<std::mutex> lk(m);
                prefixInflight.erase(pkey);
                cv.notify_all();
                throw;
            }
        } else {
            throwInjected();
            // prefixCache nodes are never erased, so the pointer
            // stays valid outside the lock.
            system.restoreCheckpointBytes(*bytes);
        }
        stats = system.measure(b.measure);
    }

    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    RunRecord record{benchmark, cfg.describe(), stats,
                     /*traceSource=*/"", wall};
    if (share_warmup)
        record.checkpoint = "warm-shared";

    if (std::getenv("BOP_VERBOSE")) {
        std::fprintf(stderr, "  [run] %-16s %-44s IPC=%.3f\n",
                     benchmark.c_str(), cfg.describe().c_str(),
                     stats.ipc());
    }
    return record;
}

void
ExperimentRunner::commitJob(const std::string &key, RunRecord record)
{
    // Write-ahead: the journal line is durable before the record is
    // acknowledged in memory, so a crash after this point loses
    // nothing and a crash before it merely re-simulates the job.
    journalCommit(key, record);
    std::lock_guard<std::mutex> lk(m);
    runRecords.push_back(record);
    cache.emplace(key, std::move(record));
}

void
ExperimentRunner::commitError(const std::string &key, RunRecord record)
{
    journalCommit(key, record);
    std::lock_guard<std::mutex> lk(m);
    runRecords.push_back(std::move(record));
}

const RunStats &
ExperimentRunner::run(const std::string &benchmark, const SystemConfig &cfg)
{
    return run(benchmark, cfg, budget).stats;
}

const RunRecord &
ExperimentRunner::run(const std::string &benchmark, const SystemConfig &cfg,
                      const Budget &b)
{
    return run(benchmark, cfg, b, shareWarmup);
}

const RunRecord &
ExperimentRunner::run(const std::string &benchmark, const SystemConfig &cfg,
                      const Budget &b, bool share_warmup)
{
    const std::string key = jobKey(benchmark, cfg, b, share_warmup);

    std::unique_lock<std::mutex> lk(m);
    for (;;) {
        auto it = cache.find(key);
        if (it != cache.end())
            return it->second;
        if (inflight.insert(key).second)
            break; // we won the latch; simulate outside the lock
        // Someone else is simulating this exact design point: wait
        // for their commit instead of duplicating the work.
        cv.wait(lk);
    }
    lk.unlock();

    RunRecord record;
    try {
        record = simulateRecord(benchmark, cfg, b, share_warmup);
    } catch (...) {
        // Release the latch so waiters retry (and likely rethrow the
        // same error themselves) instead of blocking forever.
        lk.lock();
        inflight.erase(key);
        cv.notify_all();
        throw;
    }

    try {
        // Write-ahead, still outside the memo lock; a failed journal
        // append must release the in-flight latch like any other
        // failure so waiters do not hang on a dead commit.
        journalCommit(key, record);
    } catch (...) {
        lk.lock();
        inflight.erase(key);
        cv.notify_all();
        throw;
    }
    lk.lock();
    runRecords.push_back(record);
    auto committed = cache.emplace(key, std::move(record)).first;
    inflight.erase(key);
    cv.notify_all();
    return committed->second;
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
