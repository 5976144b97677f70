/**
 * @file
 * Chaos battery: deterministic host-side fault injection across the
 * farm/serve/checkpoint stack (docs/ROBUSTNESS.md). Each test arms
 * BOP_FAULT-style points through FaultPlan::global() and checks the
 * containment contract: one faulty job becomes exactly one error
 * record, every surviving job's output is byte-identical to a
 * fault-free run, nothing hangs or crashes, and no silently-wrong
 * artifact (a half-written checkpoint, a truncated decompressor
 * stream) is ever mistaken for a good one.
 *
 * Complements tests/test_fault_injection.cc, which shrinks the
 * *simulated machine's* structural resources to pathological sizes;
 * the faults here are host-side: thrown jobs, wedged jobs, short
 * checkpoint writes, transient trace-read errors.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fault.hh"
#include "harness/bench_diff.hh"
#include "harness/experiment.hh"
#include "harness/serve.hh"
#include "sim/system.hh"
#include "trace/trace_reader.hh"

#ifndef BOP_TEST_DATA_DIR
#define BOP_TEST_DATA_DIR "tests/data"
#endif

namespace bop
{
namespace
{

/**
 * Arm the global fault plan for one scope and disarm it on exit —
 * including on assertion failure, so one test's faults never leak
 * into the next.
 */
class ArmedFaults
{
  public:
    explicit ArmedFaults(const std::string &spec)
    {
        FaultPlan::global().arm(spec);
    }
    ~ArmedFaults() { FaultPlan::global().clear(); }

    ArmedFaults(const ArmedFaults &) = delete;
    ArmedFaults &operator=(const ArmedFaults &) = delete;
};

class TempFile
{
  public:
    explicit TempFile(const std::string &tag)
        : path_("/tmp/bop_chaos_test_" + tag)
    {
        cleanup();
    }
    ~TempFile() { cleanup(); }
    const std::string &path() const { return path_; }
    /** Where writeFileAtomic() stages this file in this process. */
    std::string tmp() const
    {
        return path_ + ".tmp." + std::to_string(static_cast<long>(::getpid()));
    }

  private:
    void cleanup()
    {
        std::remove(path_.c_str());
        std::remove(tmp().c_str());
    }
    std::string path_;
};

/** Tiny budgets: the battery simulates hundreds of jobs. */
Budget
chaosBudget()
{
    Budget b;
    b.warmup = 500;
    b.measure = 1500;
    return b;
}

/** Chaos-budget runner options with a per-job deadline. */
RunnerOptions
chaosOptions(double jobTimeout = 0.0, int jobs = 1)
{
    RunnerOptions options;
    options.budget = chaosBudget();
    options.jobTimeout = jobTimeout;
    options.jobs = jobs;
    return options;
}

bool
fileExists(const std::string &path)
{
    return std::ifstream(path).good();
}

// -- the FaultPlan itself -----------------------------------------------------

TEST(FaultPlan, MalformedSpecsRejectedWithoutArming)
{
    FaultPlan &plan = FaultPlan::global();
    plan.clear();
    EXPECT_THROW(plan.arm("no-colon"), std::runtime_error);
    EXPECT_THROW(plan.arm("point:seven"), std::runtime_error);
    EXPECT_THROW(plan.arm(":3"), std::runtime_error);
    EXPECT_THROW(plan.arm("point:"), std::runtime_error);
    // arm() parses before it mutates: a rejected spec arms nothing.
    EXPECT_FALSE(plan.armed("point"));
    EXPECT_FALSE(plan.fireCounted("point"));
}

TEST(FaultPlan, CountedPointFiresOnNthHitExactlyOnce)
{
    ArmedFaults armed("p:3");
    FaultPlan &plan = FaultPlan::global();
    EXPECT_TRUE(plan.armed("p"));
    EXPECT_FALSE(plan.fireCounted("p")); // hit 1
    EXPECT_FALSE(plan.fireCounted("p")); // hit 2
    EXPECT_TRUE(plan.fireCounted("p"));  // hit 3: fires
    EXPECT_FALSE(plan.fireCounted("p")); // never again
    EXPECT_FALSE(plan.fireCounted("other")); // unarmed points are free
}

TEST(FaultPlan, IndexedPointFiresForItsOrdinalExactlyOnce)
{
    ArmedFaults armed("q:2");
    FaultPlan &plan = FaultPlan::global();
    EXPECT_FALSE(plan.fireAt("q", 1));
    EXPECT_FALSE(plan.fireAt("q", 3));
    EXPECT_TRUE(plan.fireAt("q", 2));
    EXPECT_FALSE(plan.fireAt("q", 2));
}

TEST(FaultScope, NestsAndRestoresPerThread)
{
    EXPECT_EQ(FaultScope::currentJob(), -1);
    {
        FaultScope outer(4);
        EXPECT_EQ(FaultScope::currentJob(), 4);
        {
            FaultScope inner(9);
            EXPECT_EQ(FaultScope::currentJob(), 9);
        }
        EXPECT_EQ(FaultScope::currentJob(), 4);
    }
    EXPECT_EQ(FaultScope::currentJob(), -1);
}

TEST(FaultKind, ClassifiesTheErrorRecordGrammar)
{
    EXPECT_EQ(faultKindOf(JobTimeout("late")), "timeout");
    EXPECT_EQ(faultKindOf(std::runtime_error("boom")), "simulation");
}

// -- deadlines ----------------------------------------------------------------

TEST(JobDeadline, SlowRunConvertsIntoJobTimeout)
{
    SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
    System sys(cfg, makeTraces("429.mcf", cfg));
    sys.setJobDeadline(1e-4); // far less than 1M instructions need
    try {
        sys.run(1000000, 1000);
        FAIL() << "deadline never fired";
    } catch (const JobTimeout &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("deadline"), std::string::npos) << what;
        EXPECT_NE(what.find("retired"), std::string::npos) << what;
    }
}

TEST(JobDeadline, WedgedJobConvertsIntoTimeoutErrorKind)
{
    // job_wedge simulates a job that stops making progress: it burns
    // wall clock until the armed deadline converts it.
    ArmedFaults armed("job_wedge:0");
    ExperimentRunner runner(chaosOptions(0.05));
    const SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
    FaultScope scope(0);
    try {
        runner.simulateRecord(runner.jobFor("429.mcf", cfg));
        FAIL() << "wedged job returned a record";
    } catch (const JobTimeout &e) {
        EXPECT_EQ(faultKindOf(e), "timeout");
        EXPECT_NE(std::string(e.what()).find("job_wedge"),
                  std::string::npos)
            << e.what();
    }
}

// -- warmup-prefix latch release ----------------------------------------------

TEST(Faults, ProducerThrowReleasesTheWarmupPrefixLatch)
{
    // A job sharing a warmup prefix dies before the prefix is
    // stored. It must hold nothing on the way out: a retry of the
    // same design point simulates the warmup and completes (a leaked
    // claim would block it forever, which the ctest timeout would
    // surface as a hang). OnceLatch.AThrowHandsTheKeyToAWaiter pins
    // the release of a claim that throws.
    ExperimentRunner runner(chaosOptions());
    const JobSpec job{"429.mcf", baselineConfig(1, PageSize::FourKB),
                      chaosBudget(), /*share=*/true};
    {
        ArmedFaults armed("job_throw:0");
        FaultScope scope(0);
        EXPECT_THROW(runner.simulateRecord(job), std::runtime_error);
    }
    FaultScope scope(0); // disarmed now: the point fired already
    const RunRecord record = runner.simulateRecord(job);
    EXPECT_FALSE(record.errored());
    EXPECT_EQ(runner.prefixSimulations(), 1u);
}

// -- checkpoint durability ----------------------------------------------------

TEST(Faults, ShortCheckpointWriteLeavesNoPlausibleArtifact)
{
    SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
    cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
    System saver(cfg, makeTraces("429.mcf", cfg));
    saver.warmup(1000);

    TempFile good("good.ckpt");
    saver.saveCheckpoint(good.path());
    ASSERT_TRUE(fileExists(good.path()));

    TempFile bad("bad.ckpt");
    {
        ArmedFaults armed("ckpt_write_short:1");
        try {
            saver.saveCheckpoint(bad.path());
            FAIL() << "short write reported success";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("bytes written"),
                      std::string::npos)
                << e.what();
        }
    }
    // The injected mid-save crash must never leave a restorable-
    // looking file: neither the target nor the tmp file survive.
    EXPECT_FALSE(fileExists(bad.path()));
    EXPECT_FALSE(fileExists(bad.tmp()));

    // And the earlier good checkpoint is untouched: it still restores
    // into a fresh System at the saved cycle.
    System restored(cfg, makeTraces("429.mcf", cfg));
    restored.restoreCheckpoint(good.path());
    EXPECT_EQ(restored.currentCycle(), saver.currentCycle());
}

TEST(Faults, OverwritingSaveKeepsThePreviousCheckpointOnFailure)
{
    // A failed re-save over an existing checkpoint must leave the old
    // one intact (the write goes to a tmp file; the rename never
    // happens).
    SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
    System sys(cfg, makeTraces("429.mcf", cfg));
    sys.warmup(1000);

    TempFile ckpt("overwrite.ckpt");
    sys.saveCheckpoint(ckpt.path());
    const Cycle savedAt = sys.currentCycle();

    sys.warmup(1000); // advance, then fail to re-save
    {
        ArmedFaults armed("ckpt_write_short:1");
        EXPECT_THROW(sys.saveCheckpoint(ckpt.path()),
                     std::runtime_error);
    }
    EXPECT_FALSE(fileExists(ckpt.tmp()));

    System restored(cfg, makeTraces("429.mcf", cfg));
    restored.restoreCheckpoint(ckpt.path());
    EXPECT_EQ(restored.currentCycle(), savedAt);
}

// -- trace stream robustness --------------------------------------------------

std::vector<TraceInstr>
drainTrace(const std::string &path)
{
    auto reader = openTraceReader(path);
    std::vector<TraceInstr> out;
    TraceInstr instr;
    while (reader->next(instr))
        out.push_back(instr);
    return out;
}

TEST(Faults, TransientTraceReadErrorRecoversByteIdentically)
{
    if (std::system("command -v gzip > /dev/null 2>&1") != 0)
        GTEST_SKIP() << "gzip not installed";
    const std::string gz =
        std::string(BOP_TEST_DATA_DIR) + "/smoke.champsim.gz";

    const std::vector<TraceInstr> clean = drainTrace(gz);
    std::vector<TraceInstr> injected;
    {
        ArmedFaults armed("trace_read_eio:3");
        injected = drainTrace(gz);
    }
    ASSERT_EQ(injected.size(), clean.size());
    for (std::size_t i = 0; i < clean.size(); ++i) {
        ASSERT_TRUE(injected[i].kind == clean[i].kind &&
                    injected[i].pc == clean[i].pc &&
                    injected[i].vaddr == clean[i].vaddr)
            << "diverged at record " << i;
    }
}

TEST(Faults, TruncatedDecompressorStreamNamesOffsetAndStatus)
{
    if (std::system("command -v gzip > /dev/null 2>&1") != 0)
        GTEST_SKIP() << "gzip not installed";
    const std::string gz =
        std::string(BOP_TEST_DATA_DIR) + "/smoke.champsim.gz";
    std::ifstream in(gz, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string bytes = buf.str();
    ASSERT_GT(bytes.size(), 64u);

    TempFile trunc("trunc.champsim.gz");
    {
        std::ofstream out(trunc.path(), std::ios::binary);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size() / 2));
    }
    try {
        drainTrace(trunc.path());
        FAIL() << "truncated stream read cleanly";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("decompressor failed"), std::string::npos)
            << what;
        EXPECT_NE(what.find("decompressed byte"), std::string::npos)
            << what;
    }
}

// -- the serve front end under fire -------------------------------------------

/** Mask exactly the host-timing fields the byte-identity contract
 *  excludes (same set as the --jobs contract in test_sweep_farm.cc). */
std::string
maskTiming(const std::string &line)
{
    std::string fields;
    for (const std::string &field : hostTimingFields())
        fields += (fields.empty() ? "" : "|") + field;
    const std::regex timing("\"(" + fields + ")\": [^,\\n}]+");
    return std::regex_replace(line, timing, "\"$1\": X");
}

long
jobIndexOf(const std::string &line)
{
    static const std::regex re("\"job_index\": ([0-9]+)");
    std::smatch m;
    if (std::regex_search(line, m, re))
        return std::stol(m[1].str());
    return -1;
}

/**
 * Run one serve batch of @p njobs distinct design points (distinct
 * seeds, so every job actually simulates) with @p faults armed, and
 * return the masked response lines keyed by job_index.
 */
std::map<long, std::string>
runServeBatch(int njobs, const std::string &faults, int &failures,
              std::string &diagText)
{
    std::ostringstream jobs;
    for (int i = 0; i < njobs; ++i)
        jobs << "{\"workload\": \"429.mcf\", \"seed\": " << i << "}\n";
    std::istringstream in(jobs.str());
    std::ostringstream out, diag;

    // The deadline converts the wedged job.
    ExperimentRunner runner(chaosOptions(0.5, 4));

    {
        ArmedFaults armed(faults);
        failures = serveLoop(in, out, runner, diag);
    }
    diagText = diag.str();

    std::map<long, std::string> byIndex;
    std::istringstream lines(out.str());
    std::string line;
    while (std::getline(lines, line)) {
        if (line.empty())
            continue;
        byIndex[jobIndexOf(line)] = maskTiming(line);
    }
    return byIndex;
}

TEST(ServeChaos, BatchSurvivesInjectedFaultsByteIdentically)
{
    constexpr int kJobs = 200;
    int cleanFailures = -1;
    int faultedFailures = -1;
    std::string cleanDiag, faultedDiag;
    const std::map<long, std::string> clean =
        runServeBatch(kJobs, "", cleanFailures, cleanDiag);
    const std::map<long, std::string> faulted = runServeBatch(
        kJobs, "job_throw:7,job_wedge:11", faultedFailures,
        faultedDiag);

    EXPECT_EQ(cleanFailures, 0);
    EXPECT_EQ(cleanDiag, "serve: 200 accepted, 0 rejected, 0 failed, "
                         "0 retried, 0 replayed\n");
    EXPECT_EQ(faultedFailures, 2);
    EXPECT_NE(
        faultedDiag.find("serve: 200 accepted, 0 rejected, 2 failed, "
                         "0 retried, 0 replayed\n"),
        std::string::npos)
        << faultedDiag;

    // Every job answered — with a record or with an error object.
    ASSERT_EQ(clean.size(), static_cast<std::size_t>(kJobs));
    ASSERT_EQ(faulted.size(), static_cast<std::size_t>(kJobs));

    // The failed jobs answer with the documented error grammar.
    const std::string &thrown = faulted.at(7);
    EXPECT_NE(thrown.find("\"error\": \"job failed\""),
              std::string::npos)
        << thrown;
    EXPECT_NE(thrown.find("\"kind\": \"simulation\""),
              std::string::npos)
        << thrown;
    EXPECT_NE(thrown.find("job_throw"), std::string::npos) << thrown;
    const std::string &wedged = faulted.at(11);
    EXPECT_NE(wedged.find("\"error\": \"job failed\""),
              std::string::npos)
        << wedged;
    EXPECT_NE(wedged.find("\"kind\": \"timeout\""), std::string::npos)
        << wedged;

    // Every surviving job is byte-identical to the fault-free batch
    // (host-timing fields masked): no silently-wrong records.
    for (const auto &entry : clean) {
        if (entry.first == 7 || entry.first == 11)
            continue;
        EXPECT_EQ(faulted.at(entry.first), entry.second)
            << "job " << entry.first
            << " diverged under injected faults";
    }
}

TEST(ServeChaos, FailuresAreNeverMemoised)
{
    // Two identical design points; the first throws. The second must
    // re-simulate from scratch and succeed — a memoised failure would
    // poison every later job of that design point.
    std::istringstream in("{\"workload\": \"429.mcf\"}\n"
                          "{\"workload\": \"429.mcf\"}\n");
    std::ostringstream out, diag;
    // One worker serialises: job 0 fails before job 1 starts.
    ExperimentRunner runner(chaosOptions());
    int failures = 0;
    {
        ArmedFaults armed("job_throw:0");
        failures = serveLoop(in, out, runner, diag);
    }
    EXPECT_EQ(failures, 1);
    EXPECT_NE(diag.str().find("serve: 2 accepted, 0 rejected, 1 failed, "
                          "0 retried, 0 replayed"),
              std::string::npos)
        << diag.str();
    const std::string text = out.str();
    EXPECT_NE(text.find("\"job_index\": 0"), std::string::npos) << text;
    EXPECT_NE(text.find("\"error\": \"job failed\""), std::string::npos)
        << text;
    // Job 1 answers with a real record despite sharing job 0's key.
    EXPECT_NE(text.find("\"job_index\": 1"), std::string::npos) << text;
    EXPECT_NE(text.find("\"ipc\""), std::string::npos) << text;
}

} // namespace
} // namespace bop
