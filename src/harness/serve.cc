#include "harness/serve.hh"

#include <atomic>
#include <cctype>
#include <chrono>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "harness/bench_diff.hh"
#include "harness/json_report.hh"
#include "harness/options.hh"
#include "sim/parallel.hh"
#include "trace/workloads.hh"

namespace bop
{

bool
parseL2PrefetcherName(const std::string &name, L2PrefetcherKind &kind)
{
    using K = L2PrefetcherKind;
    if (name == "none")
        kind = K::None;
    else if (name == "next-line" || name == "nl")
        kind = K::NextLine;
    else if (name == "fixed")
        kind = K::FixedOffset;
    else if (name == "bo")
        kind = K::BestOffset;
    else if (name == "bo-dpc2")
        kind = K::BestOffsetDpc2;
    else if (name == "sbp" || name == "sandbox")
        kind = K::Sandbox;
    else if (name == "stream")
        kind = K::Stream;
    else if (name == "streambuf")
        kind = K::StreamBuffer;
    else if (name == "fdp")
        kind = K::Fdp;
    else if (name == "acdc" || name == "ghb")
        kind = K::Acdc;
    else
        return false;
    return true;
}

namespace
{

bool
knownBenchmark(const std::string &name)
{
    for (const std::string &bench : benchmarkNames()) {
        if (bench == name)
            return true;
    }
    return false;
}

} // namespace

bool
parseServeJobLine(const std::string &line, const RunnerOptions &defaults,
                  JobSpec &job, std::string &error)
{
    ParsedRunRecord fields;
    try {
        std::istringstream is(line);
        fields = parseFlatRecord(is);
    } catch (const std::exception &e) {
        error = e.what();
        return false;
    }

    // bopsim's defaults: paper baseline topology, BO prefetcher.
    job.cfg = SystemConfig{};
    job.cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
    job.budget = defaults.budget;
    job.share = false;
    job.benchmark.clear();

    for (const auto &kv : fields.strings) {
        const std::string &key = kv.first;
        const std::string &value = kv.second;
        if (key == "workload") {
            job.benchmark = value;
        } else if (key == "prefetcher") {
            if (!parseL2PrefetcherName(value, job.cfg.l2Prefetcher)) {
                error = "unknown prefetcher '" + value + "'";
                return false;
            }
        } else if (key == "page") {
            if (value == "4k" || value == "4K")
                job.cfg.pageSize = PageSize::FourKB;
            else if (value == "4m" || value == "4M")
                job.cfg.pageSize = PageSize::FourMB;
            else {
                error = "page must be \"4k\" or \"4m\"";
                return false;
            }
        } else if (key == "checkpoint") {
            // "share": take the warm-up from the runner's warm-prefix
            // store (jobs with the same workload/config/warmup
            // simulate it once); "cold", like no field, runs cold.
            if (value == "share")
                job.share = true;
            else if (value == "cold")
                job.share = false;
            else {
                error = "checkpoint must be \"share\" or \"cold\"";
                return false;
            }
        } else if (key == "l3") {
            if (value == "5p")
                job.cfg.l3Policy = L3PolicyKind::P5;
            else if (value == "lru")
                job.cfg.l3Policy = L3PolicyKind::Lru;
            else if (value == "drrip")
                job.cfg.l3Policy = L3PolicyKind::Drrip;
            else {
                error = "l3 must be \"5p\", \"lru\" or \"drrip\"";
                return false;
            }
        } else {
            error = "unknown string field \"" + key + "\"";
            return false;
        }
    }

    for (const auto &kv : fields.numbers) {
        const std::string &key = kv.first;
        const double value = kv.second;
        bool fits = true;
        if (key == "offset")
            fits = wholeNumber(value, job.cfg.fixedOffset);
        else if (key == "cores")
            fits = wholeNumber(value, job.cfg.activeCores);
        else if (key == "num_cores")
            fits = wholeNumber(value, job.cfg.numCores);
        else if (key == "channels")
            fits = wholeNumber(value, job.cfg.numChannels);
        else if (key == "dl1_stride")
            job.cfg.dl1StridePrefetcher = value != 0.0;
        else if (key == "seed")
            fits = wholeNumber(value, job.cfg.seed);
        else if (key == "bo_badscore")
            fits = wholeNumber(value, job.cfg.bo.badScore);
        else if (key == "bo_rr")
            fits = wholeNumber(value, job.cfg.bo.rrEntries);
        else if (key == "bo_degree")
            fits = wholeNumber(value, job.cfg.bo.degree);
        else if (key == "bo_adaptive")
            job.cfg.bo.adaptiveBadScore = value != 0.0;
        else if (key == "bo_coverage")
            fits = wholeNumber(value, job.cfg.bo.coverageWeight);
        else if (key == "warmup")
            fits = wholeNumber(value, job.budget.warmup);
        else if (key == "instr")
            fits = wholeNumber(value, job.budget.measure);
        else {
            error = "unknown numeric field \"" + key + "\"";
            return false;
        }
        if (!fits) {
            std::ostringstream oss;
            oss << "field \"" << key << "\" must be a whole number in "
                << "range, got " << value;
            error = oss.str();
            return false;
        }
    }

    if (job.benchmark.empty()) {
        error = "missing required field \"workload\"";
        return false;
    }
    if (!knownBenchmark(job.benchmark)) {
        error = "unknown workload '" + job.benchmark + "'";
        return false;
    }
    return true;
}

namespace
{

bool
blankLine(const std::string &line)
{
    for (const char c : line) {
        if (!std::isspace(static_cast<unsigned char>(c)))
            return false;
    }
    return true;
}

/** Report one rejected line on both streams (outMutex covers both:
 *  the diagnostic stream is written by reader and workers alike). */
void
reportRejected(std::ostream &out, std::ostream &diag, std::mutex &outMutex,
               const std::string &error, long lineNo)
{
    std::lock_guard<std::mutex> lk(outMutex);
    diag << "serve: line " << lineNo << ": " << error << "\n";
    out << "{\"error\": \"" << jsonEscape(error)
        << "\", \"kind\": \"parse\", \"line\": " << lineNo << "}"
        << std::endl;
}

/** Report one accepted-but-failed job: the error object keeps the
 *  job's deterministic job_index (and the attempts it burned) so
 *  batch post-processing can match it to its submission
 *  (docs/ROBUSTNESS.md). */
void
reportFailed(std::ostream &out, std::ostream &diag, std::mutex &outMutex,
             const RunRecord &failed, long lineNo)
{
    std::lock_guard<std::mutex> lk(outMutex);
    diag << "serve: line " << lineNo << ": job " << failed.jobIndex
         << " failed (" << failed.errorKind << ", attempt "
         << failed.attempts << "): " << failed.errorDetail << "\n";
    out << "{\"error\": \"job failed\", \"kind\": \""
        << jsonEscape(failed.errorKind) << "\", \"detail\": \""
        << jsonEscape(failed.errorDetail)
        << "\", \"job_index\": " << failed.jobIndex << ", \"attempts\": "
        << failed.attempts << ", \"line\": " << lineNo << "}" << std::endl;
}

} // namespace

int
serveLoop(std::istream &in, std::ostream &out, ExperimentRunner &runner,
          std::ostream &diag, const std::atomic<bool> *stopRequested)
{
    const RunnerOptions &opts = runner.options();
    TaskPool pool(static_cast<unsigned>(opts.jobs), opts.backlog);

    std::mutex outMutex;
    std::atomic<int> failed{0};
    std::atomic<long> retried{0};
    std::atomic<long> replayed{0};
    int rejected = 0;
    long accepted = 0;
    long lineNo = 0;
    std::string line;
    auto stopping = [stopRequested] {
        return stopRequested &&
               stopRequested->load(std::memory_order_relaxed);
    };

    while (!stopping() && std::getline(in, line)) {
        ++lineNo;
        if (blankLine(line))
            continue;

        JobSpec job;
        std::string error;
        if (!parseServeJobLine(line, opts, job, error)) {
            ++rejected;
            reportRejected(out, diag, outMutex, error, lineNo);
            continue;
        }

        const long jobIndex = accepted++;
        const auto submitted = std::chrono::steady_clock::now();
        // submit() blocks while the backlog is full: backpressure on
        // the reader bounds in-flight jobs (and so memory) for
        // arbitrarily long batches.
        pool.submit([&runner, &out, &outMutex, &diag, &failed, &retried,
                     &replayed, job, jobIndex, lineNo, submitted] {
            // The runner's in-flight latch dedups identical design
            // points across concurrent jobs; memo hits answer without
            // simulating — including records replayed from a journal
            // (--resume), which are memo hits flagged journalReplayed.
            const RunRecord record =
                runner.runJob(job, jobIndex, submitted, true);
            retried += record.attempts - 1;
            if (record.errored()) {
                ++failed;
                reportFailed(out, diag, outMutex, record, lineNo);
                return;
            }
            if (record.journalReplayed)
                ++replayed;
            std::lock_guard<std::mutex> lk(outMutex);
            writeRunRecord(out, record);
            out << std::endl;
        });
    }

    if (stopping()) {
        std::lock_guard<std::mutex> lk(outMutex);
        diag << "serve: stop requested, draining in-flight jobs\n";
    }

    pool.drain(); // graceful shutdown: every accepted job answers

    {
        std::lock_guard<std::mutex> lk(outMutex);
        diag << "serve: " << accepted << " accepted, " << rejected
             << " rejected, " << failed.load() << " failed, "
             << retried.load() << " retried, " << replayed.load()
             << " replayed\n";
    }
    return rejected + failed.load();
}

} // namespace bop
