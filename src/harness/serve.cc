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

/** A whole-number field's value, from a flag's text or a job line. */
template <typename T>
bool
whole(const FieldValue &value, T &out)
{
    if (const double *number = std::get_if<double>(&value))
        return wholeNumber(*number, out);
    return wholeNumber(std::get<std::string>(value), out);
}

const std::string &
text(const FieldValue &value)
{
    return std::get<std::string>(value);
}

bool
setSwitch(const FieldValue &value, bool &out)
{
    out = std::get<double>(value) != 0.0;
    return true;
}

using enum FieldKind;
using V = const FieldValue &;
constexpr auto BO = L2PrefetcherKind::BestOffset;

// key, flag, kind, metavar, help, setter[, choices[, onlyWith]]
const ConfigField fields[] = {
    {"workload", "--workload", Text, "NAME",
     "built-in SPEC CPU2006-like generator (--list)",
     [](JobSpec &j, V v) {
         j.benchmark = text(v);
         return true;
     }},
    {"prefetcher", "--prefetcher", Text, "KIND", "L2 prefetcher (default bo):",
     [](JobSpec &j, V v) {
         return parseEnumName(text(v), j.cfg.l2Prefetcher);
     },
     enumNameList<L2PrefetcherKind>},
    {"offset", "--offset", Whole, "D", "offset D of fixed (default 1)",
     [](JobSpec &j, V v) { return whole(v, j.cfg.fixedOffset); }, nullptr,
     L2PrefetcherKind::FixedOffset},
    {"cores", "--cores", Whole, "N",
     "active cores (default 1; paper: 1, 2, 4)",
     [](JobSpec &j, V v) { return whole(v, j.cfg.activeCores); }},
    {"num_cores", "--num-cores", Whole, "N",
     "chip topology core count (default: same as --cores)",
     [](JobSpec &j, V v) { return whole(v, j.cfg.numCores); }},
    {"channels", "--channels", Whole, "M",
     "DRAM channels, power of two (default 2)",
     [](JobSpec &j, V v) { return whole(v, j.cfg.numChannels); }},
    {"page", "--page", Text, "SIZE", "page size (default 4k):",
     [](JobSpec &j, V v) { return parseEnumName(text(v), j.cfg.pageSize); },
     enumNameList<PageSize>},
    {"l3", "--l3", Text, "POLICY", "L3 replacement policy (default 5p):",
     [](JobSpec &j, V v) { return parseEnumName(text(v), j.cfg.l3Policy); },
     enumNameList<L3PolicyKind>},
    {"dl1_stride", "--no-dl1-stride", Switch, nullptr,
     "disable the DL1 stride prefetcher (job line: 0)",
     [](JobSpec &j, V v) { return setSwitch(v, j.cfg.dl1StridePrefetcher); }},
    {"bo_badscore", "--bo-badscore", Whole, "N",
     "BO throttling threshold (default 1)",
     [](JobSpec &j, V v) { return whole(v, j.cfg.bo.badScore); }, nullptr, BO},
    {"bo_rr", "--bo-rr", Whole, "N", "BO RR table entries (default 256)",
     [](JobSpec &j, V v) { return whole(v, j.cfg.bo.rrEntries); }, nullptr,
     BO},
    {"bo_degree", "--bo-degree", Whole, "N", "BO degree, 1 or 2 (default 1)",
     [](JobSpec &j, V v) { return whole(v, j.cfg.bo.degree); }, nullptr, BO},
    {"bo_adaptive", "--bo-adaptive", Switch, nullptr,
     "BO adaptive BADSCORE (Sec. 7 future work)",
     [](JobSpec &j, V v) { return setSwitch(v, j.cfg.bo.adaptiveBadScore); },
     nullptr, BO},
    {"bo_coverage", "--bo-coverage", Whole, "W",
     "BO hybrid coverage scoring weight (0-2)",
     [](JobSpec &j, V v) { return whole(v, j.cfg.bo.coverageWeight); },
     nullptr, BO},
    {"seed", "--seed", Whole, "S", "run seed (default 42)",
     [](JobSpec &j, V v) { return whole(v, j.cfg.seed); }},
    {"warmup", "--warmup", Whole, "N",
     "warm-up instructions (default 100000; with --serve, each line's)",
     [](JobSpec &j, V v) { return whole(v, j.budget.warmup); }},
    {"instr", "--instr", Whole, "N",
     "measured instructions (default 400000; with --serve, each line's)",
     [](JobSpec &j, V v) { return whole(v, j.budget.measure); }},
    // "share" takes the warm-up from the runner's warm-prefix store;
    // "cold", like no field, runs cold.
    {"checkpoint", nullptr, Text, "MODE", "warm-up sharing (default cold):",
     [](JobSpec &j, V v) {
         j.share = text(v) == "share";
         return j.share || text(v) == "cold";
     },
     [] { return std::string("share | cold"); }},
};

static_assert(std::size(fields) <= 8 * sizeof(FieldsGiven));

FieldsGiven
bit(const ConfigField &row)
{
    return FieldsGiven{1} << (&row - fields);
}

/** Why @p row refused @p value, naming the field as @p name. */
std::string
refusal(const ConfigField &row, const std::string &name,
        const FieldValue &value)
{
    std::ostringstream oss;
    if (const double *number = std::get_if<double>(&value))
        oss << "field \"" << name << "\" must be a whole number in range, "
            << "got " << *number;
    else if (row.kind == Whole)
        oss << name << ": '" << text(value)
            << "' is not a whole number in range";
    else
        oss << name << " must be " << row.choices() << ", got '"
            << text(value) << "'";
    return oss.str();
}

} // namespace

std::span<const ConfigField>
configFields()
{
    return fields;
}

JobSpec
defaultJob(const Budget &budget)
{
    JobSpec job;
    job.cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
    job.budget = budget;
    return job;
}

bool
parseConfigFlag(int argc, char **argv, int &i, JobSpec &job,
                FieldsGiven &given)
{
    const std::string arg = argv[i];
    for (const ConfigField &row : fields) {
        if (row.flag == nullptr || arg != row.flag)
            continue;
        FieldValue value = arg.starts_with("--no-") ? 0.0 : 1.0;
        if (row.kind != Switch) {
            if (i + 1 >= argc)
                throw std::invalid_argument(arg + " needs an argument");
            value = std::string(argv[++i]);
        }
        if (!row.set(job, value))
            throw std::invalid_argument(refusal(row, arg, value));
        given |= bit(row);
        return true;
    }
    return false;
}

const ConfigField *
unreadField(const JobSpec &job, FieldsGiven given)
{
    for (const ConfigField &row : fields) {
        if ((given & bit(row)) && row.onlyWith &&
            *row.onlyWith != job.cfg.l2Prefetcher)
            return &row;
    }
    return nullptr;
}

void
printConfigFieldUsage(std::ostream &os)
{
    for (const ConfigField &row : fields) {
        if (row.flag == nullptr)
            continue;
        const std::string flag = row.flag;
        printUsageLine(os, row.metavar ? flag + " " + row.metavar : flag,
                       row.help + (row.choices ? " " + row.choices() : ""));
    }
}

bool
parseServeJobLine(const std::string &line, const RunnerOptions &defaults,
                  JobSpec &job, std::string &error)
{
    ParsedRunRecord record;
    try {
        std::istringstream is(line);
        record = parseFlatRecord(is);
    } catch (const std::exception &e) {
        error = e.what();
        return false;
    }

    job = defaultJob(defaults.budget);
    FieldsGiven given = 0;
    auto take = [&](const std::string &key, const FieldValue &value) {
        const bool number = std::holds_alternative<double>(value);
        for (const ConfigField &row : fields) {
            if (key != row.key || (row.kind == Text) == number)
                continue;
            if (!row.set(job, value)) {
                error = refusal(row, key, value);
                return false;
            }
            given |= bit(row);
            return true;
        }
        error = "unknown " + std::string(number ? "numeric" : "string") +
                " field \"" + key + "\"";
        return false;
    };
    for (const auto &[key, value] : record.strings) {
        if (!take(key, value))
            return false;
    }
    for (const auto &[key, value] : record.numbers) {
        if (!take(key, value))
            return false;
    }

    if (job.benchmark.empty()) {
        error = "missing required field \"workload\"";
        return false;
    }
    if (!knownBenchmark(job.benchmark)) {
        error = "unknown workload '" + job.benchmark + "'";
        return false;
    }
    if (const ConfigField *row = unreadField(job, given)) {
        error = "field \"" + std::string(row->key) +
                "\" is read only with \"prefetcher\": \"" +
                enumName(*row->onlyWith).names[0] + "\"";
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
