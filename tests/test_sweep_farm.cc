/**
 * @file
 * Sweep-farm / batch-service tests: the job-queue layer must keep the
 * runner's JSON output byte-identical to a serial sweep for every
 * worker count (timing fields aside), keep record order and job_index
 * deterministic under arbitrary worker scheduling, simulate each
 * design point exactly once no matter how many concurrent duplicates
 * hammer the runner, honor the TaskPool backpressure bound, and make
 * `bopsim --serve` reject malformed job lines with diagnostics while
 * draining large batches gracefully.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness/bench_diff.hh"
#include "harness/experiment.hh"
#include "harness/json_report.hh"
#include "harness/serve.hh"
#include "harness/sweep_farm.hh"
#include "sim/parallel.hh"

namespace bop
{
namespace
{

/** Small budgets so a test sweep is dozens of milliseconds, not minutes. */
Budget
testBudget()
{
    Budget b;
    b.warmup = 2000;
    b.measure = 8000;
    return b;
}

/** Runner options for the test budgets on @p jobs workers, keeping
 *  warm-up prefixes in @p dir ("" = none, so farm jobs run cold). */
RunnerOptions
testOptions(int jobs = 1, const std::string &dir = "")
{
    RunnerOptions options;
    options.budget = testBudget();
    options.jobs = jobs;
    options.checkpointDir = dir;
    return options;
}

/** A fresh warm-prefix directory path under /tmp, removed on exit. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
        : path_("/tmp/bop_sweep_farm_" + tag + "_" +
                std::to_string(static_cast<long>(::getpid())))
    {
        std::filesystem::remove_all(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }
    const std::string &path() const { return path_; }

    /** Names of the files in the directory (none when it is absent). */
    std::vector<std::string>
    files() const
    {
        std::vector<std::string> names;
        if (std::filesystem::is_directory(path_)) {
            for (const auto &e : std::filesystem::directory_iterator(path_))
                names.push_back(e.path().filename().string());
        }
        return names;
    }

  private:
    std::string path_;
};

/** The fig06 sweep shape on a two-benchmark, two-grid-point subset. */
const std::vector<std::string> &
subsetBenches()
{
    static const std::vector<std::string> benches = {"429.mcf",
                                                     "470.lbm"};
    return benches;
}

void
submitFig06Subset(SweepFarm &farm)
{
    for (const std::string &bench : subsetBenches()) {
        for (const int cores : {1, 2}) {
            const SystemConfig base =
                baselineConfig(cores, PageSize::FourKB);
            SystemConfig cfg = base;
            cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
            farm.submit(bench, cfg);
            farm.submit(bench, base);
        }
    }
    farm.drain();
}

/**
 * Serialize records with the host-timing fields masked: exactly the
 * keys the --jobs byte-identity contract excludes (hostTimingFields(),
 * the list `bench_diff` ignores).
 * job_index is NOT masked — it must match across worker counts.
 */
std::string
maskedJson(const ExperimentRunner &runner)
{
    std::ostringstream os;
    writeRunRecords(os, runner.records());
    std::string fields;
    for (const std::string &field : hostTimingFields())
        fields += (fields.empty() ? "" : "|") + field;
    const std::regex timing("\"(" + fields + ")\": [^,\\n}]+");
    return std::regex_replace(os.str(), timing, "\"$1\": X");
}

TEST(SweepFarm, JsonByteIdenticalAcrossJobCounts)
{
    std::string reference;
    for (const int jobs : {1, 2, 4, 8}) {
        ExperimentRunner runner(testOptions(jobs));
        {
            SweepFarm farm(runner);
            submitFig06Subset(farm);
        }
        const std::string json = maskedJson(runner);
        if (jobs == 1) {
            reference = json;
            ASSERT_FALSE(reference.empty());
        } else {
            EXPECT_EQ(json, reference) << "--jobs " << jobs
                                       << " diverged from serial";
        }
    }
}

TEST(SweepFarm, RecordOrderIsSubmissionOrder)
{
    // Many distinct design points with wildly different simulation
    // costs (core counts 1/2/4), so completion order under 8 workers
    // is effectively randomized — commit order must not care.
    ExperimentRunner runner(testOptions(8));
    std::vector<std::string> expect;
    {
        SweepFarm farm(runner);
        for (const std::string &bench : subsetBenches()) {
            for (const int cores : {4, 1, 2}) {
                for (const std::uint64_t seed : {1ull, 2ull}) {
                    SystemConfig cfg =
                        baselineConfig(cores, PageSize::FourKB);
                    cfg.seed = seed;
                    farm.submit(bench, cfg);
                    expect.push_back(bench + "##" + cfg.describe());
                }
            }
        }
        farm.drain();
    }

    const std::vector<RunRecord> &records = runner.records();
    ASSERT_EQ(records.size(), expect.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].workload + "##" + records[i].config,
                  expect[i]);
        EXPECT_EQ(records[i].jobIndex, static_cast<long>(i));
        EXPECT_EQ(records[i].jobs, 8);
    }
}

TEST(SweepFarm, DuplicateSubmissionsSimulateOnce)
{
    ExperimentRunner runner(testOptions(4));
    const SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
    {
        SweepFarm farm(runner);
        for (int i = 0; i < 20; ++i)
            farm.submit("429.mcf", cfg);
        farm.drain();
        // A second round after the drain: the memo is warm now, so
        // nothing new may be enqueued either.
        for (int i = 0; i < 20; ++i)
            farm.submit("429.mcf", cfg);
        farm.drain();
    }
    EXPECT_EQ(runner.records().size(), 1u);
}

TEST(ExperimentRunner, ConcurrentDuplicateRunsSimulateOnce)
{
    // Hammer one design point from many threads: the in-flight latch
    // must collapse all of them onto a single simulation, and every
    // caller must see the committed record.
    ExperimentRunner runner(testOptions());
    const SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
    const Budget b = testBudget();

    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < 5; ++i) {
                const RunRecord &r =
                    runner.run(runner.jobFor("429.mcf", cfg));
                // Retirement can overshoot the target by a few
                // instructions in the final superscalar tick, never
                // undershoot it.
                if (r.stats.instructions < b.measure)
                    ++mismatches;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(runner.records().size(), 1u);
}

TEST(SweepFarm, JsonByteIdenticalAcrossJobCountsWithSharing)
{
    // The fig06-with-shared-warmup-prefixes contract: with a
    // warm-prefix directory the farm JSON must still be byte-identical
    // for every --jobs count (timing fields aside) — the checkpoint
    // provenance field included, whichever worker happened to win the
    // prefix race.
    std::string reference;
    for (const int jobs : {1, 2, 4, 8}) {
        TempDir dir("json" + std::to_string(jobs));
        ExperimentRunner runner(testOptions(jobs, dir.path()));
        {
            SweepFarm farm(runner);
            submitFig06Subset(farm);
        }
        for (const RunRecord &r : runner.records())
            EXPECT_EQ(r.checkpoint, "warm-shared");
        const std::string json = maskedJson(runner);
        if (jobs == 1) {
            reference = json;
            ASSERT_FALSE(reference.empty());
        } else {
            EXPECT_EQ(json, reference)
                << "--jobs " << jobs
                << " with checkpoint sharing diverged from serial";
        }
    }
}

TEST(SweepFarm, SharedWarmupStatsMatchColdRuns)
{
    // Restore bit-identity end to end through the runner: a sweep
    // with checkpoint sharing must report exactly the same simulated
    // statistics as a cold sweep (the records differ only in the
    // checkpoint provenance field and host timing).
    ExperimentRunner cold(testOptions(2));
    {
        SweepFarm farm(cold);
        submitFig06Subset(farm);
    }
    TempDir dir("stats");
    ExperimentRunner shared(testOptions(2, dir.path()));
    {
        SweepFarm farm(shared);
        submitFig06Subset(farm);
    }
    ASSERT_EQ(shared.records().size(), cold.records().size());
    for (std::size_t i = 0; i < cold.records().size(); ++i) {
        EXPECT_TRUE(shared.records()[i].stats == cold.records()[i].stats)
            << "record " << i;
        EXPECT_EQ(shared.records()[i].checkpoint, "warm-shared");
        EXPECT_EQ(cold.records()[i].checkpoint, "");
    }
}

TEST(SweepFarm, DirectoryPrefixesServeALaterBudget)
{
    // One budget gives each prefix one memo key, so a sweep's
    // prefixes pay off in a later process: the directory holds one
    // entry per prefix, and a fresh runner at another measure budget
    // restores every warm-up from it.
    TempDir dir("later");
    ExperimentRunner first(testOptions(4, dir.path()));
    {
        SweepFarm farm(first);
        submitFig06Subset(farm);
    }
    EXPECT_EQ(first.prefixSimulations(), 8u);
    EXPECT_EQ(dir.files().size(), 8u) << "one entry per prefix, no tmp";

    RunnerOptions later = testOptions(4, dir.path());
    later.budget.measure = 5000;
    ExperimentRunner second(later);
    {
        SweepFarm farm(second);
        submitFig06Subset(farm);
    }
    EXPECT_EQ(second.prefixSimulations(), 0u);

    later.checkpointDir.clear();
    ExperimentRunner cold(later);
    {
        SweepFarm farm(cold);
        submitFig06Subset(farm);
    }
    ASSERT_EQ(second.records().size(), 8u);
    ASSERT_EQ(cold.records().size(), 8u);
    for (std::size_t i = 0; i < cold.records().size(); ++i) {
        EXPECT_TRUE(second.records()[i].stats == cold.records()[i].stats)
            << "record " << i;
    }
}

TEST(OnceLatch, AThrowHandsTheKeyToAWaiter)
{
    // The first arrival dies mid-compute: a concurrent arrival for the
    // same key must compute it instead of waiting forever, and later
    // arrivals find the committed value without computing.
    std::mutex m;
    OnceLatch latch;
    const int *value = nullptr;
    int stored = 0;
    std::atomic<int> computes{0};
    auto find = [&] { return value; };
    auto commit = [&](int v) {
        stored = v;
        value = &stored;
        return value;
    };

    std::atomic<bool> started{false};
    std::thread first([&] {
        EXPECT_THROW(latch.once(
                         m, "k", find,
                         [&]() -> int {
                             ++computes;
                             started = true;
                             std::this_thread::sleep_for(
                                 std::chrono::milliseconds(50));
                             throw std::runtime_error("died");
                         },
                         commit),
                     std::runtime_error);
    });
    while (!started)
        std::this_thread::yield();
    const int *got = latch.once(
        m, "k", find,
        [&] {
            ++computes;
            return 7;
        },
        commit);
    first.join();
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(*got, 7);
    EXPECT_EQ(computes.load(), 2);

    got = latch.once(
        m, "k", find, [&] { return ++computes; }, commit);
    EXPECT_EQ(*got, 7);
    EXPECT_EQ(computes.load(), 2);
}

TEST(ExperimentRunner, SharedPrefixSimulatesWarmupExactlyOnce)
{
    // N jobs sharing one (benchmark, config, warmup) prefix but
    // differing in measure budget, hammered from 8 threads: the
    // prefix latch must collapse all their warmups onto a single
    // simulation, and each job's stats must equal its own cold run.
    ExperimentRunner runner(testOptions());
    const SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
    const std::uint64_t measures[] = {3000, 4000, 5000, 6000,
                                      7000, 8000, 9000, 10000};

    std::vector<std::thread> threads;
    for (const std::uint64_t measure : measures) {
        threads.emplace_back([&runner, &cfg, measure] {
            runner.run(JobSpec{"429.mcf", cfg, {2000, measure},
                               /*share=*/true});
        });
    }
    for (std::thread &t : threads)
        t.join();

    EXPECT_EQ(runner.prefixSimulations(), 1u)
        << "8 jobs sharing one warmup prefix must warm up once";
    EXPECT_EQ(runner.records().size(), 8u);

    // Spot-check one budget against its cold twin.
    ExperimentRunner coldRunner(testOptions());
    const RunRecord &shared =
        runner.run(JobSpec{"429.mcf", cfg, {2000, 6000}, true});
    const RunRecord &cold =
        coldRunner.run(JobSpec{"429.mcf", cfg, {2000, 6000}, false});
    EXPECT_TRUE(shared.stats == cold.stats)
        << "warm-shared stats must be bit-identical to a cold run";
    EXPECT_EQ(shared.checkpoint, "warm-shared");
    EXPECT_EQ(cold.checkpoint, "");

    // Distinct warmup budgets are distinct prefixes.
    runner.run(JobSpec{"429.mcf", cfg, {1000, 3000}, true});
    EXPECT_EQ(runner.prefixSimulations(), 2u);
}

TEST(Serve, CheckpointJobLines)
{
    // Per-line opt-in: three "share" jobs on one prefix (one warmup
    // simulation), one "cold" twin, one bad value (rejected). The
    // shared and cold runs must report identical simulated cycles.
    std::istringstream in(
        "{\"workload\": \"429.mcf\", \"warmup\": 2000, \"instr\": 4000,"
        " \"checkpoint\": \"share\"}\n"
        "{\"workload\": \"429.mcf\", \"warmup\": 2000, \"instr\": 6000,"
        " \"checkpoint\": \"share\"}\n"
        "{\"workload\": \"429.mcf\", \"warmup\": 2000, \"instr\": 8000,"
        " \"checkpoint\": \"share\"}\n"
        "{\"workload\": \"429.mcf\", \"warmup\": 2000, \"instr\": 6000,"
        " \"checkpoint\": \"cold\"}\n"
        "{\"workload\": \"429.mcf\", \"checkpoint\": \"sometimes\"}\n");
    std::ostringstream out, diag;
    ExperimentRunner runner(testOptions(4));

    const int failures = serveLoop(in, out, runner, diag);
    EXPECT_EQ(failures, 1);
    EXPECT_NE(diag.str().find("checkpoint must be"), std::string::npos)
        << diag.str();
    EXPECT_EQ(runner.prefixSimulations(), 1u)
        << "the three share jobs must warm up exactly once";
    EXPECT_EQ(runner.records().size(), 4u);

    // Responses carry the provenance field.
    const std::string response = out.str();
    std::size_t warmShared = 0, none = 0;
    static const std::regex ckpt_re("\"checkpoint\": \"([a-z-]+)\"");
    for (auto it = std::sregex_iterator(response.begin(),
                                        response.end(), ckpt_re);
         it != std::sregex_iterator(); ++it) {
        if ((*it)[1].str() == "warm-shared")
            ++warmShared;
        else if ((*it)[1].str() == "none")
            ++none;
    }
    EXPECT_EQ(warmShared, 3u);
    EXPECT_EQ(none, 1u);

    // The shared 2000+6000 job and the cold 2000+6000 job simulated
    // the same design point: their cycle counts must be identical.
    std::vector<std::uint64_t> cycles;
    static const std::regex pair_re(
        "\"cycles\": ([0-9]+), \"instructions\": (6[0-9]+)");
    for (auto it = std::sregex_iterator(response.begin(),
                                        response.end(), pair_re);
         it != std::sregex_iterator(); ++it) {
        cycles.push_back(std::stoull((*it)[1].str()));
    }
    ASSERT_EQ(cycles.size(), 2u) << response;
    EXPECT_EQ(cycles[0], cycles[1])
        << "shared vs cold run of the same design point diverged";
}

TEST(Serve, LineWithoutACheckpointFieldRunsCold)
{
    // A serve line shares only when it says "share": with a directory
    // set, a line with no "checkpoint" field and a "cold" line both
    // run cold — provenance "none", no prefix simulated or stored.
    TempDir dir("serve_cold");
    ExperimentRunner runner(testOptions(1, dir.path()));
    std::istringstream in(
        "{\"workload\": \"429.mcf\"}\n"
        "{\"workload\": \"429.mcf\", \"instr\": 6000, "
        "\"checkpoint\": \"cold\"}\n");
    std::ostringstream out, diag;
    EXPECT_EQ(serveLoop(in, out, runner, diag), 0) << diag.str();
    EXPECT_EQ(out.str().find("warm-shared"), std::string::npos)
        << out.str();
    ASSERT_EQ(runner.records().size(), 2u);
    for (const RunRecord &r : runner.records())
        EXPECT_EQ(r.checkpoint, "");
    EXPECT_EQ(runner.prefixSimulations(), 0u);
    EXPECT_TRUE(dir.files().empty());
}

TEST(Serve, RefusedSavesKeepTheWarmupInMemory)
{
    // The directory names a regular file, so every save fails: the
    // warm prefix stays in memory instead, and eight "share" lines
    // that differ only in their measure budget still warm up once.
    TempDir dir("serve_file");
    std::ofstream(dir.path()) << "not a directory\n";
    std::ostringstream batch;
    for (int i = 0; i < 8; ++i) {
        batch << "{\"workload\": \"429.mcf\", \"warmup\": 2000, "
              << "\"instr\": " << 3000 + 1000 * i
              << ", \"checkpoint\": \"share\"}\n";
    }
    std::istringstream in(batch.str());
    std::ostringstream out, diag;
    ExperimentRunner runner(testOptions(4, dir.path()));
    EXPECT_EQ(serveLoop(in, out, runner, diag), 0) << diag.str();
    EXPECT_EQ(runner.prefixSimulations(), 1u)
        << "a refused save must not cost a second warm-up";
    ASSERT_EQ(runner.records().size(), 8u);
    for (const RunRecord &r : runner.records())
        EXPECT_EQ(r.checkpoint, "warm-shared");
    EXPECT_TRUE(std::filesystem::is_regular_file(dir.path()));
}

TEST(TaskPool, RunsEverythingAndDrainsTwice)
{
    TaskPool pool(4);
    std::atomic<int> done{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&done] { ++done; });
    pool.drain();
    EXPECT_EQ(done.load(), 100);
    // The pool stays usable after a drain.
    for (int i = 0; i < 50; ++i)
        pool.submit([&done] { ++done; });
    pool.drain();
    EXPECT_EQ(done.load(), 150);
}

TEST(TaskPool, SubmitBlocksWhenBacklogFull)
{
    // One worker, backlog 2. A blocker task pins the worker; two
    // queued fillers reach the bound; a third submission must not
    // return until the blocker releases (this is the memory bound the
    // serve loop relies on for arbitrarily long job streams).
    TaskPool pool(1, 2);
    std::mutex m;
    std::condition_variable cv;
    bool release = false;
    bool blocker_running = false;

    pool.submit([&] {
        std::unique_lock<std::mutex> lk(m);
        blocker_running = true;
        cv.notify_all();
        cv.wait(lk, [&] { return release; });
    });
    {
        std::unique_lock<std::mutex> lk(m);
        cv.wait(lk, [&] { return blocker_running; });
    }
    pool.submit([] {});
    pool.submit([] {});

    std::atomic<bool> fourth_submitted{false};
    std::thread submitter([&] {
        pool.submit([] {});
        fourth_submitted = true;
    });
    // The worker is pinned and the queue is at the bound, so the
    // fourth submit cannot have gone through yet.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(fourth_submitted.load());

    {
        std::lock_guard<std::mutex> lk(m);
        release = true;
    }
    cv.notify_all();
    submitter.join();
    EXPECT_TRUE(fourth_submitted.load());
    pool.drain();
}

TEST(TaskPool, WorkerExceptionsDeliveredAtDrain)
{
    // A throwing task must not take its worker (or the pool) down:
    // the exception is parked as a JobError, every other task still
    // runs, drain() returns, and takeErrors() hands the failures back
    // ordered by submission ordinal.
    TaskPool pool(4);
    std::atomic<int> done{0};
    for (int i = 0; i < 40; ++i) {
        if (i % 10 == 3) {
            pool.submit([i] {
                throw std::runtime_error("boom " + std::to_string(i));
            });
        } else {
            pool.submit([&done] { ++done; });
        }
    }
    pool.drain();
    EXPECT_EQ(done.load(), 36);

    std::vector<JobError> errors = pool.takeErrors();
    ASSERT_EQ(errors.size(), 4u);
    EXPECT_EQ(errors[0].index, 3u);
    EXPECT_EQ(errors[1].index, 13u);
    EXPECT_EQ(errors[2].index, 23u);
    EXPECT_EQ(errors[3].index, 33u);
    EXPECT_EQ(errors[0].kind, "simulation");
    EXPECT_NE(errors[0].what.find("boom 3"), std::string::npos);
    // takeErrors() drains: a second call is empty.
    EXPECT_TRUE(pool.takeErrors().empty());

    // The pool stays usable after failures.
    pool.submit([&done] { ++done; });
    pool.drain();
    EXPECT_EQ(done.load(), 37);
    EXPECT_TRUE(pool.takeErrors().empty());
}

TEST(TaskPool, BacklogKeepsDrainingAfterEarlyError)
{
    // One worker, backlog 2: the very first task throws while later
    // submissions are leaning on the backpressure bound. The error
    // must not wedge the bookkeeping — every queued task still runs
    // and drain() returns.
    TaskPool pool(1, 2);
    std::atomic<int> done{0};
    pool.submit([] { throw std::runtime_error("first task fails"); });
    for (int i = 0; i < 20; ++i)
        pool.submit([&done] { ++done; });
    pool.drain();
    EXPECT_EQ(done.load(), 20);

    std::vector<JobError> errors = pool.takeErrors();
    ASSERT_EQ(errors.size(), 1u);
    EXPECT_EQ(errors[0].index, 0u);
    EXPECT_NE(errors[0].what.find("first task fails"), std::string::npos);
}

TEST(Serve, MalformedLinesRejectedWithDiagnostics)
{
    std::istringstream in(
        "this is not json\n"
        "{\"workload\": \"429.mcf\", \"bogus_knob\": 3}\n"
        "{\"workload\": \"not-a-benchmark\"}\n"
        "{\"prefetcher\": \"bo\"}\n"
        // Numbers that are not whole or do not fit the field's type
        // are rejected at parse time, naming the field, instead of
        // being truncated, wrapped or cast with undefined behaviour.
        "{\"workload\": \"429.mcf\", \"cores\": 1.9}\n"
        "{\"workload\": \"429.mcf\", \"instr\": -5}\n"
        "{\"workload\": \"429.mcf\", \"cores\": 1e30}\n"
        "{\"workload\": \"429.mcf\", \"seed\": 1e30}\n"
        // The intra-run thread count is no longer a knob.
        "{\"workload\": \"429.mcf\", \"threads\": 4}\n"
        "\n"
        "{\"workload\": \"429.mcf\"}\n");
    std::ostringstream out, diag;
    ExperimentRunner runner(testOptions(2));

    const int failures = serveLoop(in, out, runner, diag);
    EXPECT_EQ(failures, 9);

    // One {"error", "line"} object per bad line, pointing at it.
    const std::string response = out.str();
    for (const int line : {1, 2, 3, 4, 5, 6, 7, 8, 9}) {
        EXPECT_NE(response.find("\"line\": " + std::to_string(line)),
                  std::string::npos)
            << response;
        EXPECT_NE(diag.str().find("serve: line " + std::to_string(line)),
                  std::string::npos)
            << diag.str();
    }
    // Rejected as lines (kind "parse"), not failed as simulations.
    EXPECT_EQ(response.find("job failed"), std::string::npos) << response;
    for (const char *field : {"\"cores\" must be a whole number",
                              "\"instr\" must be a whole number",
                              "\"seed\" must be a whole number",
                              "unknown numeric field \"threads\""}) {
        EXPECT_NE(diag.str().find(field), std::string::npos)
            << field << " in " << diag.str();
    }
    // The good line (11, after the blank) still simulated.
    EXPECT_NE(response.find("\"job_index\": 0"), std::string::npos);
    EXPECT_EQ(runner.records().size(), 1u);
}

TEST(Serve, FieldsThePrefetcherDoesNotReadAnswerParse)
{
    // bo-dpc2 runs its fixed preset: a bo_* field under it used to
    // simulate the default run. Now the line is refused as a parse
    // error, and the same line without the field still runs.
    std::istringstream in(
        "{\"workload\": \"462.libquantum\", \"prefetcher\": "
        "\"bo-dpc2\", \"bo_badscore\": 3}\n"
        "{\"workload\": \"462.libquantum\", \"offset\": 5}\n"
        "{\"workload\": \"462.libquantum\", \"prefetcher\": "
        "\"bo-dpc2\"}\n");
    std::ostringstream out, diag;
    ExperimentRunner runner(testOptions(1));

    EXPECT_EQ(serveLoop(in, out, runner, diag), 2);
    const std::string response = out.str();
    for (const int line : {1, 2}) {
        EXPECT_NE(response.find("\"kind\": \"parse\", \"line\": " +
                                std::to_string(line)),
                  std::string::npos)
            << response;
    }
    EXPECT_NE(diag.str().find("\"bo_badscore\" is read only with "
                              "\"prefetcher\": \"bo\""),
              std::string::npos)
        << diag.str();
    EXPECT_NE(diag.str().find("\"offset\" is read only with "
                              "\"prefetcher\": \"fixed\""),
              std::string::npos)
        << diag.str();
    EXPECT_EQ(runner.records().size(), 1u);
}

TEST(Serve, ThousandJobBatchDedupsAndDrains)
{
    // 1000 jobs cycling over 4 distinct design points, 4 workers,
    // backlog 8: the reader must block on the bound (memory stays
    // O(backlog)), the latch must collapse the batch onto 4 actual
    // simulations, and every accepted job must answer exactly once.
    std::ostringstream batch;
    for (int i = 0; i < 1000; ++i) {
        batch << "{\"workload\": \"429.mcf\", \"seed\": " << (i % 4)
              << "}\n";
    }
    std::istringstream in(batch.str());
    std::ostringstream out, diag;
    RunnerOptions options = testOptions(4);
    options.backlog = 8;
    ExperimentRunner runner(options);

    const int failures = serveLoop(in, out, runner, diag);
    EXPECT_EQ(failures, 0);
    // The only diagnostic on a clean batch is the final summary line.
    EXPECT_EQ(diag.str(), "serve: 1000 accepted, 0 rejected, 0 failed, "
                          "0 retried, 0 replayed\n");
    EXPECT_EQ(runner.records().size(), 4u);

    // Every job_index 0..999 answered exactly once (completion order
    // is scheduling-dependent; coverage must not be).
    std::vector<int> seen(1000, 0);
    const std::string response = out.str();
    static const std::regex index_re("\"job_index\": ([0-9]+)");
    auto it = std::sregex_iterator(response.begin(), response.end(),
                                   index_re);
    std::size_t responses = 0;
    for (; it != std::sregex_iterator(); ++it, ++responses) {
        const int idx = std::stoi((*it)[1].str());
        ASSERT_LT(idx, 1000);
        ++seen[static_cast<std::size_t>(idx)];
    }
    EXPECT_EQ(responses, 1000u);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(seen[static_cast<std::size_t>(i)], 1) << i;
}

} // namespace
} // namespace bop
