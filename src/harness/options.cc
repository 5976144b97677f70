#include "harness/options.hh"

#include <algorithm>
#include <cstdlib>
#include <sstream>

namespace bop
{

namespace
{

using Arg = const std::string &;

// Which readers take a flag or variable: a mask of OptionReader bits.
constexpr unsigned None = 0u;
constexpr unsigned Bopsim = static_cast<unsigned>(OptionReader::Bopsim);
constexpr unsigned Bench = static_cast<unsigned>(OptionReader::Bench);
constexpr unsigned Both = Bopsim | Bench;

bool
reads(unsigned readers, OptionReader reader)
{
    return (readers & static_cast<unsigned>(reader)) != 0;
}

/**
 * One knob: its flag and/or variable, the binaries that take each,
 * and how to store a value.
 */
struct OptionRow
{
    const char *flag; ///< nullptr: environment only
    unsigned flagReaders;
    const char *env; ///< nullptr: flag only
    unsigned envReaders;
    const char *metavar; ///< value placeholder in usage text
    const char *help;
    void (*set)(RunnerOptions &, Arg name, Arg value);
};

double
seconds(Arg name, Arg text)
{
    double value = 0.0;
    if (!numberText(text, value) || value < 0.0)
        throw std::invalid_argument(name + ": '" + text +
                                    "' is not a number of seconds >= 0");
    return value;
}

using U64 = std::uint64_t;

const OptionRow rows[] = {
    {"--warmup", Bopsim, "BOP_WARMUP", Bench, "N",
     "warm-up instructions per job (default 100000)",
     [](RunnerOptions &o, Arg n, Arg v) {
         o.budget.warmup = wholeOption<U64>(n, v);
     }},
    {"--instr", Bopsim, "BOP_INSTR", Bench, "N",
     "measured instructions per job (default 400000)",
     [](RunnerOptions &o, Arg n, Arg v) {
         o.budget.measure = wholeOption<U64>(n, v);
     }},
    {"--jobs", Both, "BOP_JOBS", Both, "N",
     "worker threads for sweeps and --serve (default 1)",
     [](RunnerOptions &o, Arg n, Arg v) { o.jobs = wholeOption(n, v, 1); }},
    {"--backlog", Bopsim, nullptr, None, "N",
     "in-flight jobs before submission blocks (default 4*jobs)",
     [](RunnerOptions &o, Arg n, Arg v) {
         o.backlog = wholeOption<std::size_t>(n, v);
     }},
    {"--job-timeout", Bopsim, "BOP_JOB_TIMEOUT", Both, "SEC",
     "per-job wall-clock deadline; a late job answers with an error "
     "record (default 0 = off)",
     [](RunnerOptions &o, Arg n, Arg v) { o.jobTimeout = seconds(n, v); }},
    {"--retries", Both, "BOP_RETRIES", Both, "N",
     "retry transient (kind \"io\") job failures up to N times "
     "(default 0)",
     [](RunnerOptions &o, Arg n, Arg v) { o.retries = wholeOption(n, v, 0); }},
    {"--journal", Both, nullptr, None, "FILE",
     "append every committed record to a crash-durable write-ahead "
     "journal",
     [](RunnerOptions &o, Arg, Arg v) { o.journalPath = v; }},
    {"--resume", Both, nullptr, None, "FILE",
     "replay a journal first: journaled jobs answer verbatim",
     [](RunnerOptions &o, Arg, Arg v) { o.resumePath = v; }},
    {nullptr, None, "BOP_CKPT_SHARE", Both, "0|1",
     "share warm-up prefixes between jobs by default (default 0)",
     [](RunnerOptions &o, Arg n, Arg v) {
         o.share = wholeOption(n, v, 0) != 0;
     }},
    {nullptr, None, "BOP_CKPT_DIR", Both, "DIR",
     "persist shared warm-up prefixes in DIR across processes",
     [](RunnerOptions &o, Arg, Arg v) { o.checkpointDir = v; }},
};

} // namespace

RunnerOptions
RunnerOptions::fromEnv(OptionReader reader)
{
    RunnerOptions options;
    for (const OptionRow &row : rows) {
        if (!reads(row.envReaders, reader))
            continue;
        const char *value = std::getenv(row.env);
        if (value != nullptr && *value != '\0')
            row.set(options, row.env, value);
    }
    return options;
}

bool
RunnerOptions::parseFlag(OptionReader reader, int argc, char **argv, int &i)
{
    const std::string arg = argv[i];
    for (const OptionRow &row : rows) {
        if (!reads(row.flagReaders, reader) || arg != row.flag)
            continue;
        if (i + 1 >= argc)
            throw std::invalid_argument(arg + " needs an argument");
        row.set(*this, arg, argv[++i]);
        return true;
    }
    return false;
}

void
printRunnerOptionsUsage(std::ostream &os, OptionReader reader)
{
    for (const OptionRow &row : rows) {
        const bool flag = reads(row.flagReaders, reader);
        const bool env = reads(row.envReaders, reader);
        if (!flag && !env)
            continue;
        const std::string name =
            flag ? std::string(row.flag) + " " + row.metavar
                 : std::string(row.env) + "=" + row.metavar;
        std::string help = row.help;
        if (flag && env)
            help += "; also " + std::string(row.env);
        // Word-wrap the help into a hanging indent at column 22.
        std::string line = "  " + name;
        std::istringstream words(help);
        std::string word;
        while (words >> word) {
            if (line.size() > 22 && line.size() + 1 + word.size() > 76) {
                os << line << "\n";
                line.clear();
            }
            line.resize(std::max<std::size_t>(line.size() + 1, 22), ' ');
            line += word;
        }
        os << line << "\n";
    }
}

std::string
runnerOptionsMarkdown()
{
    // A flag or variable only one kind of binary takes says which.
    auto cell = [](const std::string &text, unsigned readers) {
        if (readers == None)
            return std::string("—");
        return "`" + text + "`" +
               (readers == Bopsim  ? " (bopsim)"
                : readers == Bench ? " (benches)"
                                   : "");
    };
    std::ostringstream os;
    os << "| Flag | Environment | Meaning |\n"
       << "|------|-------------|---------|\n";
    for (const OptionRow &row : rows) {
        os << "| "
           << cell(row.flag ? std::string(row.flag) + " " + row.metavar
                            : std::string(),
                   row.flagReaders)
           << " | " << cell(row.env ? row.env : "", row.envReaders)
           << " | " << row.help << " |\n";
    }
    return os.str();
}

} // namespace bop
