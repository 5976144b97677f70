/**
 * @file
 * Tests for the experiment harness (baseline configs, memoisation,
 * speedup computation) and the runner options parsed from the
 * environment and flags.
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
    EXPECT_FALSE(options.share);
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

/** Parse @p args as @p reader's flags on top of @p options. */
RunnerOptions
parseFlags(RunnerOptions options, std::vector<std::string> args,
           OptionReader reader = OptionReader::Bopsim)
{
    std::vector<char *> argv = {const_cast<char *>("prog")};
    for (std::string &arg : args)
        argv.push_back(arg.data());
    const int argc = static_cast<int>(argv.size());
    for (int i = 1; i < argc; ++i) {
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
    ScopedEnv share("BOP_CKPT_SHARE", "1");
    ScopedEnv dir("BOP_CKPT_DIR", "/tmp/prefixes");
    ScopedEnv timeout("BOP_JOB_TIMEOUT", "0.25");
    const RunnerOptions env = RunnerOptions::fromEnv(OptionReader::Bench);
    EXPECT_EQ(env.budget.warmup, 20000u);
    EXPECT_EQ(env.budget.measure, 1000u);
    EXPECT_EQ(env.jobs, 3);
    EXPECT_TRUE(env.share);
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
    const RunnerOptions bopsim = parseFlags(
        {}, {"--warmup", "5", "--backlog", "8", "--job-timeout", "1.5"});
    EXPECT_EQ(bopsim.budget.warmup, 5u);
    EXPECT_EQ(bopsim.backlog, 8u);
    EXPECT_EQ(bopsim.jobTimeout, 1.5);
}

TEST(RunnerOptions, WarmupWithAUnitSuffixIsRefused)
{
    // `--warmup 1k` used to run a 1-instruction warmup.
    EXPECT_EQ(refusal([] { parseFlags({}, {"--warmup", "1k"}); }),
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
    EXPECT_NE(refusal([] { parseFlags({}, {"--instr", "99999999999999999999"}); }),
              "");
    EXPECT_EQ(refusal([] { parseFlags({}, {"--instr"}); }),
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

} // namespace
} // namespace bop
