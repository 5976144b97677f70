/**
 * @file
 * Tests for the experiment harness (baseline configs, memoisation,
 * speedup computation), the runner options parsed from the
 * environment and flags, and the design-point field table that
 * bopsim's flags and serve job lines share.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/options.hh"
#include "harness/serve.hh"

namespace bop
{
namespace
{

/** Runner options for short 1000 + 4000 instruction runs. */
RunnerOptions
shortRuns()
{
    RunnerOptions options;
    options.budget = {1000, 4000};
    return options;
}

TEST(Harness, BaselineGridHasSixConfigs)
{
    const auto grid = baselineGrid();
    EXPECT_EQ(grid.size(), 6u);
    EXPECT_EQ(grid[0].first, 1);
    EXPECT_EQ(grid[0].second, PageSize::FourKB);
    EXPECT_EQ(grid[5].first, 4);
    EXPECT_EQ(grid[5].second, PageSize::FourMB);
}

TEST(Harness, BaselineIsNextLineWith5P)
{
    const SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
    EXPECT_EQ(cfg.l2Prefetcher, L2PrefetcherKind::NextLine);
    EXPECT_EQ(cfg.l3Policy, L3PolicyKind::P5);
    EXPECT_TRUE(cfg.dl1StridePrefetcher);
}

TEST(Harness, GridLabels)
{
    EXPECT_EQ(gridLabel(1, PageSize::FourKB), "1-core/4KB");
    EXPECT_EQ(gridLabel(4, PageSize::FourMB), "4-core/4MB");
}

TEST(Harness, FingerprintDistinguishesConfigs)
{
    SystemConfig a = baselineConfig(1, PageSize::FourKB);
    SystemConfig b = a;
    b.bo.badScore = 5;
    EXPECT_NE(configFingerprint(a), configFingerprint(b));
    SystemConfig c = a;
    c.fixedOffset = 3;
    EXPECT_NE(configFingerprint(a), configFingerprint(c));
}

TEST(Harness, FingerprintsArePinned)
{
    // Journals, memo keys and BOP_CKPT_DIR warm prefixes are keyed by
    // these strings, so a refactor of the configuration must leave
    // them byte-identical (or bump the formats that store them).
    const std::string tail = "|bo=256,31,100,1,256,1,0,0,0|sbp=256,2"
                             "|fdp=2,2048|ghb=1,6,4|sbuf=4,8|dpc2=10,60";
    const std::string base = "1-core, 4KB pages, L2 ";
    const std::string rest = ", L3 5P, DL1 stride|seed=42" + tail + "|D=1";
    using K = L2PrefetcherKind;
    const std::vector<std::pair<K, std::string>> kinds = {
        {K::None, "none"},
        {K::NextLine, "next-line"},
        {K::FixedOffset, "fixed-offset(D=1)"},
        {K::BestOffset, "best-offset"},
        {K::Sandbox, "sandbox"},
        {K::Stream, "stream"},
        {K::Fdp, "fdp"},
        {K::Acdc, "acdc"},
        {K::StreamBuffer, "streambuf"},
        {K::BestOffsetDpc2, "bo-dpc2"},
    };
    for (const auto &[kind, name] : kinds) {
        SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
        cfg.l2Prefetcher = kind;
        EXPECT_EQ(configFingerprint(cfg), base + name + rest);
    }

    SystemConfig bo = baselineConfig(1, PageSize::FourKB);
    bo.l2Prefetcher = K::BestOffset;
    bo.bo.badScore = 7;
    bo.bo.rrEntries = 64;
    bo.bo.degree = 2;
    bo.bo.adaptiveBadScore = true;
    bo.bo.coverageWeight = 2;
    EXPECT_EQ(configFingerprint(bo),
              "1-core, 4KB pages, L2 best-offset, L3 5P, DL1 stride"
              "|seed=42|bo=64,31,100,7,256,2,0,1,2|sbp=256,2|fdp=2,2048"
              "|ghb=1,6,4|sbuf=4,8|dpc2=10,60|D=1");

    SystemConfig fixed = baselineConfig(2, PageSize::FourMB);
    fixed.l2Prefetcher = K::FixedOffset;
    fixed.fixedOffset = 5;
    fixed.numCores = 4;
    fixed.numChannels = 4;
    fixed.l3Policy = L3PolicyKind::Drrip;
    fixed.dl1StridePrefetcher = false;
    fixed.seed = 7;
    EXPECT_EQ(configFingerprint(fixed),
              "2-core/4cpu, 4-chan, 4MB pages, L2 fixed-offset(D=5), "
              "L3 DRRIP, no DL1 prefetch|seed=7" + tail + "|D=5");
    fixed.l3Policy = L3PolicyKind::Lru;
    EXPECT_NE(configFingerprint(fixed).find(", L3 LRU,"), std::string::npos);
}

TEST(Harness, MakeTracesAddsThrashers)
{
    const SystemConfig cfg = baselineConfig(4, PageSize::FourKB);
    const auto traces = makeTraces("429.mcf", cfg);
    ASSERT_EQ(traces.size(), 4u);
    EXPECT_EQ(traces[0]->name(), "429.mcf");
    EXPECT_EQ(traces[1]->name(), "thrasher");
    EXPECT_EQ(traces[3]->name(), "thrasher");
}

TEST(Harness, RunnerMemoises)
{
    ExperimentRunner runner(shortRuns());
    const SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
    const RunStats &a = runner.run("456.hmmer", cfg);
    const RunStats &b = runner.run("456.hmmer", cfg);
    EXPECT_EQ(&a, &b) << "same config must return the cached object";
}

TEST(Harness, SpeedupOfIdenticalConfigsIsOne)
{
    ExperimentRunner runner(shortRuns());
    const SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
    EXPECT_DOUBLE_EQ(runner.speedup("456.hmmer", cfg, cfg), 1.0);
}

TEST(Harness, GeomeanSpeedupAggregates)
{
    ExperimentRunner runner(shortRuns());
    const SystemConfig base = baselineConfig(1, PageSize::FourKB);
    SystemConfig no_pf = base;
    no_pf.l2Prefetcher = L2PrefetcherKind::None;
    const double g = runner.geomeanSpeedup({"456.hmmer", "482.sphinx3"},
                                           no_pf, base);
    EXPECT_GT(g, 0.1);
    EXPECT_LT(g, 2.0);
}

TEST(RunnerOptions, Defaults)
{
    const RunnerOptions options;
    EXPECT_EQ(options.budget.warmup, 100000u);
    EXPECT_EQ(options.budget.measure, 400000u);
    EXPECT_EQ(options.jobTimeout, 0.0);
    EXPECT_EQ(options.retries, 0);
    EXPECT_EQ(options.jobs, 1);
    EXPECT_EQ(options.backlog, 0u);
    EXPECT_TRUE(options.checkpointDir.empty());
    EXPECT_TRUE(options.journalPath.empty());
    EXPECT_TRUE(options.resumePath.empty());
}

/** Sets an environment variable for one scope. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        ::setenv(name, value, 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }

  private:
    const char *name_;
};

/**
 * Parse @p args as @p reader's flags on top of @p options; with a
 * @p job, design-point flags go into it first, as in bopsim.
 */
RunnerOptions
parseFlags(RunnerOptions options, std::vector<std::string> args,
           OptionReader reader = OptionReader::Bopsim,
           JobSpec *job = nullptr, FieldsGiven *given = nullptr)
{
    std::vector<char *> argv = {const_cast<char *>("prog")};
    for (std::string &arg : args)
        argv.push_back(arg.data());
    const int argc = static_cast<int>(argv.size());
    FieldsGiven ignored = 0;
    for (int i = 1; i < argc; ++i) {
        if (job && parseConfigFlag(argc, argv.data(), i, *job,
                                   given ? *given : ignored))
            continue;
        if (!options.parseFlag(reader, argc, argv.data(), i))
            throw std::logic_error("not a runner flag: " +
                                   std::string(argv[static_cast<std::size_t>(i)]));
    }
    return options;
}

/** The what() of the std::invalid_argument @p parse throws, or "". */
template <typename F>
std::string
refusal(F &&parse)
{
    try {
        parse();
    } catch (const std::invalid_argument &e) {
        return e.what();
    }
    return "";
}

TEST(RunnerOptions, EnvironmentThenFlags)
{
    ScopedEnv warmup("BOP_WARMUP", "20000");
    ScopedEnv instr("BOP_INSTR", "1e3");
    ScopedEnv jobs("BOP_JOBS", "3");
    ScopedEnv dir("BOP_CKPT_DIR", "/tmp/prefixes");
    ScopedEnv timeout("BOP_JOB_TIMEOUT", "0.25");
    const RunnerOptions env = RunnerOptions::fromEnv(OptionReader::Bench);
    EXPECT_EQ(env.budget.warmup, 20000u);
    EXPECT_EQ(env.budget.measure, 1000u);
    EXPECT_EQ(env.jobs, 3);
    EXPECT_EQ(env.checkpointDir, "/tmp/prefixes");
    EXPECT_EQ(env.jobTimeout, 0.25);

    // A flag overrides its variable; the rest keep the environment's.
    const RunnerOptions flags =
        parseFlags(env, {"--jobs", "2", "--retries", "4", "--journal",
                         "j.ndjson", "--resume", "r.ndjson"},
                   OptionReader::Bench);
    EXPECT_EQ(flags.jobs, 2);
    EXPECT_EQ(flags.retries, 4);
    EXPECT_EQ(flags.journalPath, "j.ndjson");
    EXPECT_EQ(flags.resumePath, "r.ndjson");
    EXPECT_EQ(flags.budget.warmup, 20000u);
}

TEST(RunnerOptions, EachBinaryKeepsItsOwnOptions)
{
    // Sharing the table gives no binary a new option: budgets are
    // flags on bopsim and variables on the benches, and --backlog and
    // --job-timeout are bopsim flags only.
    ScopedEnv warmup("BOP_WARMUP", "20000");
    EXPECT_EQ(RunnerOptions::fromEnv(OptionReader::Bopsim).budget.warmup,
              100000u);
    EXPECT_EQ(RunnerOptions::fromEnv(OptionReader::Bench).budget.warmup,
              20000u);
    for (const char *flag :
         {"--warmup", "--instr", "--backlog", "--job-timeout"}) {
        EXPECT_THROW(parseFlags({}, {flag, "8"}, OptionReader::Bench),
                     std::logic_error)
            << flag;
    }
    // bopsim's budgets are design-point fields (its job's budget).
    JobSpec job;
    const RunnerOptions bopsim =
        parseFlags({}, {"--warmup", "5", "--backlog", "8", "--job-timeout",
                        "1.5"},
                   OptionReader::Bopsim, &job);
    EXPECT_EQ(job.budget.warmup, 5u);
    EXPECT_EQ(bopsim.backlog, 8u);
    EXPECT_EQ(bopsim.jobTimeout, 1.5);
    EXPECT_THROW(parseFlags({}, {"--warmup", "5"}), std::logic_error);
}

TEST(RunnerOptions, WarmupWithAUnitSuffixIsRefused)
{
    // `--warmup 1k` used to run a 1-instruction warmup.
    JobSpec job;
    EXPECT_EQ(refusal([&] {
                  parseFlags({}, {"--warmup", "1k"}, OptionReader::Bopsim,
                             &job);
              }),
              "--warmup: '1k' is not a whole number in range");
}

TEST(RunnerOptions, NonNumericInstrVariableIsRefused)
{
    // `BOP_INSTR=abc` used to measure 0 instructions per run.
    ScopedEnv instr("BOP_INSTR", "abc");
    EXPECT_EQ(refusal([] { RunnerOptions::fromEnv(OptionReader::Bench); }),
              "BOP_INSTR: 'abc' is not a whole number in range");
}

TEST(RunnerOptions, FractionalWholeNumbersAreRefused)
{
    // `--cores 1.5` used to become 1 core; cores is a bopsim flag, so
    // check the shared helper it parses through.
    EXPECT_EQ(refusal([] { wholeOption<int>("--cores", "1.5"); }),
              "--cores: '1.5' is not a whole number in range");
    EXPECT_EQ(wholeOption<int>("--cores", "2"), 2);
    EXPECT_EQ(wholeOption<std::uint64_t>("--seed", "18446744073709551615"),
              18446744073709551615ull);
}

TEST(RunnerOptions, RangesAndMissingValuesAreRefused)
{
    EXPECT_EQ(refusal([] { parseFlags({}, {"--jobs", "0"}); }),
              "--jobs: '0' is not a whole number >= 1");
    EXPECT_EQ(refusal([] { parseFlags({}, {"--retries", "-1"}); }),
              "--retries: '-1' is not a whole number >= 0");
    EXPECT_NE(refusal([] { parseFlags({}, {"--job-timeout", "soon"}); }),
              "");
    JobSpec job;
    EXPECT_NE(refusal([&] {
                  parseFlags({}, {"--instr", "99999999999999999999"},
                             OptionReader::Bopsim, &job);
              }),
              "");
    EXPECT_EQ(refusal([&] {
                  parseFlags({}, {"--instr"}, OptionReader::Bopsim, &job);
              }),
              "--instr needs an argument");
}

TEST(RunnerOptions, ReadmeTableIsGeneratedFromTheOptions)
{
    // README.md carries runnerOptionsMarkdown() verbatim; regenerate
    // it from this function when a knob changes.
    std::ifstream in(std::string(BOP_TEST_DATA_DIR) + "/../../README.md");
    ASSERT_TRUE(in) << "README.md not found";
    std::stringstream readme;
    readme << in.rdbuf();
    EXPECT_NE(readme.str().find(runnerOptionsMarkdown()), std::string::npos)
        << "README.md is missing this table:\n"
        << runnerOptionsMarkdown();
}

/** The values a field's tests try: every name of a fixed vocabulary,
 *  two whole numbers, a switch's flag, a workload. */
std::vector<std::string>
sampleValues(const ConfigField &row)
{
    switch (row.kind) {
      case FieldKind::Switch:
        return {""};
      case FieldKind::Whole:
        return {"2", "3"};
      case FieldKind::Text:
        break;
    }
    if (!row.choices)
        return {"470.lbm"};
    std::vector<std::string> names;
    std::istringstream list(row.choices());
    for (std::string name; list >> name;) {
        if (name != "|")
            names.push_back(name);
    }
    return names;
}

/** @p row set to @p value as a serve job line reads it, on top of
 *  429.mcf and the prefetcher the field needs. */
JobSpec
jobFromLine(const ConfigField &row, const std::string &value)
{
    std::string line = "{";
    if (std::string(row.key) != "workload")
        line += "\"workload\": \"429.mcf\", ";
    if (row.onlyWith) {
        line += "\"prefetcher\": \"" +
                std::string(enumName(*row.onlyWith).names[0]) + "\", ";
    }
    line += "\"" + std::string(row.key) + "\": ";
    if (row.kind == FieldKind::Text)
        line += "\"" + value + "\"";
    else if (row.kind == FieldKind::Switch)
        line += std::string(row.flag).starts_with("--no-") ? "0" : "1";
    else
        line += value;
    line += "}";
    JobSpec job;
    std::string error;
    EXPECT_TRUE(parseServeJobLine(line, shortRuns(), job, error))
        << line << ": " << error;
    return job;
}

TEST(ConfigFields, FlagAndJobLineFormsAgree)
{
    for (const ConfigField &row : configFields()) {
        if (row.flag == nullptr)
            continue;
        for (const std::string &value : sampleValues(row)) {
            std::vector<std::string> args;
            if (std::string(row.key) != "workload")
                args = {"--workload", "429.mcf"};
            if (row.onlyWith) {
                args.push_back("--prefetcher");
                args.push_back(enumName(*row.onlyWith).names[0]);
            }
            args.push_back(row.flag);
            if (row.kind != FieldKind::Switch)
                args.push_back(value);
            JobSpec flags = defaultJob(shortRuns().budget);
            FieldsGiven given = 0;
            parseFlags({}, args, OptionReader::Bopsim, &flags, &given);
            EXPECT_EQ(unreadField(flags, given), nullptr) << row.flag;

            const JobSpec line = jobFromLine(row, value);
            const std::string label = std::string(row.flag) + " " + value;
            EXPECT_EQ(flags.benchmark, line.benchmark) << label;
            EXPECT_EQ(configFingerprint(flags.cfg),
                      configFingerprint(line.cfg))
                << label;
            EXPECT_EQ(flags.budget.warmup, line.budget.warmup) << label;
            EXPECT_EQ(flags.budget.measure, line.budget.measure) << label;
        }
    }
}

TEST(ConfigFields, EveryFieldChangesTheRunKey)
{
    // The run key is the memo key: the workload, configFingerprint(),
    // the budget and the warm-up sharing. A field whose value it does
    // not see would answer one design point with another's record.
    for (const ConfigField &row : configFields()) {
        JobSpec base = defaultJob(shortRuns().budget);
        base.benchmark = "429.mcf";
        if (row.onlyWith)
            base.cfg.l2Prefetcher = *row.onlyWith;
        bool changed = false;
        for (const std::string &value : sampleValues(row)) {
            const JobSpec job = jobFromLine(row, value);
            changed = changed || ExperimentRunner::runKey(job) !=
                                     ExperimentRunner::runKey(base);
        }
        EXPECT_TRUE(changed) << row.key;
    }
}

TEST(ConfigFields, FieldsThePrefetcherDoesNotReadAreRefused)
{
    // bo-dpc2 builds its fixed preset, so a bo_* field under it used
    // to simulate the default run (and split the memo key).
    JobSpec job;
    std::string error;
    for (const char *line :
         {"{\"workload\": \"462.libquantum\", \"prefetcher\": \"bo-dpc2\", "
          "\"bo_badscore\": 3}",
          "{\"bo_rr\": 64, \"prefetcher\": \"sbp\", \"workload\": "
          "\"429.mcf\"}",
          "{\"workload\": \"429.mcf\", \"bo_adaptive\": 0, "
          "\"prefetcher\": \"fixed\"}",
          "{\"workload\": \"429.mcf\", \"offset\": 5}",
          "{\"workload\": \"429.mcf\", \"prefetcher\": \"bo-dpc2\", "
          "\"offset\": 5}"}) {
        EXPECT_FALSE(parseServeJobLine(line, shortRuns(), job, error))
            << line;
        EXPECT_NE(error.find("is read only with \"prefetcher\""),
                  std::string::npos)
            << error;
    }
    EXPECT_TRUE(parseServeJobLine(
        "{\"workload\": \"429.mcf\", \"prefetcher\": \"bo\", \"bo_rr\": 64}",
        shortRuns(), job, error))
        << error;
    EXPECT_TRUE(parseServeJobLine(
        "{\"offset\": 5, \"workload\": \"429.mcf\", \"prefetcher\": "
        "\"fixed\"}",
        shortRuns(), job, error))
        << error;

    // Flags: refused whatever their order, once all are read.
    for (const std::vector<std::string> &args :
         std::vector<std::vector<std::string>>{
             {"--bo-badscore", "3", "--prefetcher", "bo-dpc2"},
             {"--prefetcher", "bo-dpc2", "--bo-badscore", "3"},
             {"--prefetcher", "none", "--bo-adaptive"},
             {"--offset", "5"}}) {
        JobSpec flags = defaultJob(shortRuns().budget);
        FieldsGiven given = 0;
        parseFlags({}, args, OptionReader::Bopsim, &flags, &given);
        EXPECT_NE(unreadField(flags, given), nullptr) << args.front();
    }
}

TEST(ConfigFields, ReadmeListsEveryJobLineKey)
{
    // README's "Sweep farm & serve mode" lists every job-line key with
    // its bopsim flag, one table row each.
    std::ifstream in(std::string(BOP_TEST_DATA_DIR) + "/../../README.md");
    ASSERT_TRUE(in) << "README.md not found";
    std::stringstream readme;
    readme << in.rdbuf();
    for (const ConfigField &row : configFields()) {
        std::string cells = "| `" + std::string(row.key) + "` | ";
        if (row.flag != nullptr) {
            cells += "`" + std::string(row.flag) +
                     (row.metavar ? " " + std::string(row.metavar) : "") +
                     "` |";
        }
        EXPECT_NE(readme.str().find(cells), std::string::npos)
            << "README.md is missing the row for " << cells;
    }
}

} // namespace
} // namespace bop
