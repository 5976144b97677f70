/**
 * @file
 * Crash-durability battery: the write-ahead result journal, --resume
 * replay, the disk-backed checkpoint cache and bounded retry
 * (docs/ROBUSTNESS.md).
 *
 * The centrepiece is a fork-based crash-recovery test: a child
 * process runs a journaled sweep, is killed by the counted
 * `crash_hard` fault mid-append (`_exit(137)`, a SIGKILL-equivalent
 * hard death that leaves a torn final line), and the parent resumes
 * from the journal — the final record stream must be byte-identical
 * to an uninterrupted run, host-timing fields aside.
 *
 * The decode tests pin the framing grammar: a torn final line is
 * dropped with a warning, a complete line failing its CRC is refused
 * with the line number and byte offset, and a budget mismatch refuses
 * the whole resume — a corrupt journal must never silently skew
 * results.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fault.hh"
#include "common/serializer.hh"
#include "harness/bench_diff.hh"
#include "harness/checkpoint.hh"
#include "harness/experiment.hh"
#include "harness/journal.hh"
#include "harness/serve.hh"
#include "harness/sweep_farm.hh"

namespace bop
{
namespace
{

/** Arm the global fault plan for one scope; disarm on exit. */
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
        : path_("/tmp/bop_journal_test_" + tag)
    {
        cleanup();
    }
    ~TempFile() { cleanup(); }
    const std::string &path() const { return path_; }

  private:
    void cleanup()
    {
        std::remove(path_.c_str());
    }
    std::string path_;
};

/** Tiny budgets: the battery simulates dozens of jobs. */
Budget
tinyBudget()
{
    Budget b;
    b.warmup = 500;
    b.measure = 1500;
    return b;
}

/** Runner options with the tiny budgets and optional journal paths. */
RunnerOptions
tinyOptions(const std::string &journal = "", const std::string &resume = "")
{
    RunnerOptions options;
    options.budget = tinyBudget();
    options.journalPath = journal;
    options.resumePath = resume;
    return options;
}

/** Mask exactly the host-timing fields the byte-identity contract
 *  excludes (hostTimingFields(), as in test_chaos.cc /
 *  test_sweep_farm.cc), plus attempts (a crash-resumed job may have
 *  taken several). */
std::string
maskTiming(const std::string &text)
{
    std::string fields = "attempts";
    for (const std::string &field : hostTimingFields())
        fields += "|" + field;
    const std::regex timing("\"(" + fields + ")\": [^,\\n}]+");
    return std::regex_replace(text, timing, "\"$1\": X");
}

/** Mask only the derived throughput rates: recomputed from the
 *  6-decimal replayed wall_seconds, they may differ in their last
 *  digits from rates derived from the full-precision original. Every
 *  other byte of a replayed record — wall_seconds included — must
 *  reproduce exactly. */
std::string
maskRates(const std::string &text)
{
    static const std::regex rates(
        "\"(sim_mcycles_per_s|retired_minstr_per_s)\": [^,\\n}]+");
    return std::regex_replace(text, rates, "\"$1\": X");
}

/** The runner's committed records as json_report text. */
std::string
recordsText(const ExperimentRunner &runner)
{
    std::ostringstream os;
    writeRunRecords(os, runner.records());
    return os.str();
}

/** Submit an @p njobs sweep of distinct seeds and drain. */
void
runSweep(SweepFarm &farm, int njobs)
{
    for (int i = 0; i < njobs; ++i) {
        SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
        cfg.seed = static_cast<std::uint64_t>(i);
        farm.submit("429.mcf", cfg);
    }
    farm.drain();
}

/** A representative hand-built success record with non-zero stats. */
RunRecord
sampleRecord()
{
    RunRecord record;
    record.workload = "429.mcf";
    record.config = "sample-config";
    record.stats.cycles = 123456;
    record.stats.instructions = 78901;
    record.stats.l2Accesses = 4321;
    record.stats.l2Misses = 987;
    record.stats.l2PrefIssued = 654;
    record.stats.dramReads = 321;
    record.stats.dramWrites = 123;
    record.jobs = 4;
    record.jobIndex = 7;
    // Exactly representable in %.6f so the pinned-grammar round trip
    // below can compare full bytes, timing fields included.
    record.wallSeconds = 0.5;
    record.queueWaitSeconds = 0.25;
    record.attempts = 2;
    record.checkpoint = "warm-shared";
    return record;
}

// -- framing ------------------------------------------------------------------

TEST(JournalFraming, FrameUnframeRoundTrip)
{
    const std::string payload = "{\"hello\": 1}";
    const std::string line = ResultJournal::frame(payload);
    // 16-char trailer: " @crc32=" + 8 hex digits.
    ASSERT_EQ(line.size(), payload.size() + 16);
    EXPECT_EQ(line.substr(payload.size(), 8), " @crc32=");

    std::string out, error;
    ASSERT_TRUE(ResultJournal::unframe(line, out, error)) << error;
    EXPECT_EQ(out, payload);
}

TEST(JournalFraming, RejectsMissingTrailerAndBadCrc)
{
    std::string out, error;
    EXPECT_FALSE(ResultJournal::unframe("{\"x\": 1}", out, error));
    EXPECT_NE(error.find("trailer"), std::string::npos) << error;

    std::string line = ResultJournal::frame("{\"x\": 1}");
    // Flip one payload byte: the CRC no longer matches.
    line[2] ^= 0x01;
    error.clear();
    EXPECT_FALSE(ResultJournal::unframe(line, out, error));
    EXPECT_NE(error.find("CRC"), std::string::npos) << error;
}

TEST(JournalFraming, StatsHexRoundTripIsBitExact)
{
    const RunRecord record = sampleRecord();
    const std::string hex = ResultJournal::encodeStatsHex(record.stats);
    const RunStats back = ResultJournal::decodeStatsHex(hex);
    EXPECT_EQ(ResultJournal::encodeStatsHex(back), hex);
    EXPECT_EQ(back.cycles, record.stats.cycles);
    EXPECT_EQ(back.instructions, record.stats.instructions);
    EXPECT_EQ(back.dramWrites, record.stats.dramWrites);

    EXPECT_THROW(ResultJournal::decodeStatsHex("zz"),
                 std::runtime_error);
    EXPECT_THROW(ResultJournal::decodeStatsHex(hex.substr(2)),
                 std::runtime_error);
}

TEST(JournalFraming, RecordPayloadRoundTripReproducesJsonBytes)
{
    const RunRecord record = sampleRecord();
    const std::string payload =
        ResultJournal::recordPayload("some-key", record);
    const JournalEntry entry =
        ResultJournal::decodeRecordPayload(payload);
    EXPECT_EQ(entry.key, "some-key");

    // The replayed record re-serialises to the exact bytes the
    // original would have written — the byte-identity contract.
    std::ostringstream original, replayed;
    writeRunRecord(original, record);
    writeRunRecord(replayed, entry.record);
    EXPECT_EQ(replayed.str(), original.str());
}

TEST(JournalFraming, ErrorRecordPayloadRoundTrip)
{
    RunRecord record;
    record.workload = "429.mcf";
    record.config = "sample-config";
    record.jobs = 2;
    record.jobIndex = 3;
    record.attempts = 2;
    record.errorKind = "io";
    record.errorDetail = "injected fault job_io at job 3";

    const std::string payload =
        ResultJournal::recordPayload("err-key", record);
    const JournalEntry entry =
        ResultJournal::decodeRecordPayload(payload);
    EXPECT_EQ(entry.key, "err-key");
    EXPECT_TRUE(entry.record.errored());
    EXPECT_EQ(entry.record.errorKind, "io");
    EXPECT_EQ(entry.record.attempts, 2);

    std::ostringstream original, replayed;
    writeRunRecord(original, record);
    writeRunRecord(replayed, entry.record);
    EXPECT_EQ(replayed.str(), original.str());
}

TEST(JournalFraming, DecodeRefusesPayloadWithoutJournalKey)
{
    std::ostringstream os;
    writeRunRecord(os, sampleRecord());
    EXPECT_THROW(ResultJournal::decodeRecordPayload(os.str()),
                 std::runtime_error);
}

// -- append / load ------------------------------------------------------------

TEST(Journal, AppendThenLoadReplaysEntriesInOrder)
{
    TempFile file("append_load");
    {
        ResultJournal journal;
        journal.open(file.path(), 500, 1500);
        RunRecord a = sampleRecord();
        a.jobIndex = 0;
        RunRecord b = sampleRecord();
        b.jobIndex = 1;
        journal.append("key-a", a);
        journal.append("key-b", b);
    }
    std::ostringstream diag;
    const auto entries =
        ResultJournal::load(file.path(), 500, 1500, diag);
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].key, "key-a");
    EXPECT_EQ(entries[1].key, "key-b");
    EXPECT_EQ(entries[1].record.jobIndex, 1);
    EXPECT_EQ(diag.str(), "");
}

TEST(Journal, TornFinalLineIsDroppedWithAWarning)
{
    TempFile file("torn");
    {
        ResultJournal journal;
        journal.open(file.path(), 500, 1500);
        journal.append("key-a", sampleRecord());
    }
    {
        // A producer killed mid-append: half a line, no newline.
        std::ofstream out(file.path(), std::ios::app);
        out << "{\"workload\": \"429.mcf\", \"ipc";
    }
    std::ostringstream diag;
    const auto entries =
        ResultJournal::load(file.path(), 500, 1500, diag);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_NE(diag.str().find("torn final line"), std::string::npos)
        << diag.str();
    EXPECT_NE(diag.str().find("byte offset"), std::string::npos)
        << diag.str();
}

TEST(Journal, MidStreamCorruptionIsRefusedWithByteOffset)
{
    TempFile file("corrupt");
    {
        ResultJournal journal;
        journal.open(file.path(), 500, 1500);
        journal.append("key-a", sampleRecord());
        journal.append("key-b", sampleRecord());
    }
    // Flip one byte in the middle of line 2 (the first record): a
    // COMPLETE line failing its CRC is corruption, not a torn tail.
    std::string text;
    {
        std::ifstream in(file.path());
        std::ostringstream buf;
        buf << in.rdbuf();
        text = buf.str();
    }
    const std::size_t line2 = text.find('\n') + 10;
    text[line2] = text[line2] == 'x' ? 'y' : 'x';
    {
        std::ofstream out(file.path(), std::ios::trunc);
        out << text;
    }
    std::ostringstream diag;
    try {
        ResultJournal::load(file.path(), 500, 1500, diag);
        FAIL() << "corrupt mid-stream line was not refused";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("line 2"), std::string::npos) << what;
        EXPECT_NE(what.find("byte offset"), std::string::npos) << what;
    }
}

TEST(Journal, BudgetMismatchRefusesResumeAndAppend)
{
    TempFile file("budget");
    {
        ResultJournal journal;
        journal.open(file.path(), 500, 1500);
        journal.append("key-a", sampleRecord());
    }
    // Replay under drifted budgets: refused, named mismatch.
    std::ostringstream diag;
    try {
        ResultJournal::load(file.path(), 1000, 1500, diag);
        FAIL() << "budget drift was not refused";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("config drift"),
                  std::string::npos)
            << e.what();
    }
    // Appending a new session under drifted budgets: same refusal.
    ResultJournal journal;
    EXPECT_THROW(journal.open(file.path(), 500, 9999),
                 std::runtime_error);
}

TEST(Journal, ShortWriteFaultThrowsAndLeavesReplayableJournal)
{
    TempFile file("short_write");
    ExperimentRunner runner(tinyOptions(file.path()));
    runner.openJournals(std::cerr); // header written, faults unarmed
    RunRecord record = sampleRecord();
    const std::string key = ExperimentRunner::runKey(
        runner.jobFor("429.mcf", baselineConfig(1, PageSize::FourKB)));
    {
        ArmedFaults armed("journal_write_short:1");
        try {
            runner.commit(key, record);
            FAIL() << "short journal write did not throw";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("short write"),
                      std::string::npos)
                << e.what();
        }
    }
    // The torn half-line is dropped on replay; nothing was committed,
    // nothing replays — fail loudly, never skew silently.
    std::ostringstream diag;
    const auto entries = ResultJournal::load(
        file.path(), tinyBudget().warmup, tinyBudget().measure, diag);
    EXPECT_EQ(entries.size(), 0u);
    EXPECT_NE(diag.str().find("torn final line"), std::string::npos)
        << diag.str();
}

// -- resume through the farm --------------------------------------------------

TEST(JournalResume, CompletedSweepReplaysWithoutSimulating)
{
    TempFile file("resume_full");
    std::string originalText;
    {
        ExperimentRunner runner(tinyOptions(file.path()));
        runner.openJournals(std::cerr);
        SweepFarm farm(runner);
        runSweep(farm, 4);
        originalText = recordsText(runner);
    }

    ExperimentRunner resumed(tinyOptions("", file.path()));
    std::ostringstream diag;
    EXPECT_EQ(resumed.openJournals(diag), 4u);
    EXPECT_NE(diag.str().find("replayed 4 record"), std::string::npos)
        << diag.str();

    SweepFarm farm(resumed);
    runSweep(farm, 4);
    ASSERT_EQ(resumed.records().size(), 4u);
    // Every record came from the journal, not a re-simulation.
    for (const RunRecord &record : resumed.records())
        EXPECT_TRUE(record.journalReplayed);
    // Byte-identical INCLUDING wall clock: replayed bytes are the
    // journaled bytes, not fresh measurements. Only the derived
    // throughput rates may differ in final digits (recomputed from
    // the 6-decimal wall_seconds).
    EXPECT_EQ(maskRates(recordsText(resumed)), maskRates(originalText));
}

TEST(JournalResume, JournalWithLegacyThreadsFieldStillResumes)
{
    // Journals written before the intra-run thread knob was removed
    // carry a "threads" field in every record line. Replay ignores it
    // and reproduces the same records.
    TempFile file("resume_threads_field");
    std::string originalText;
    {
        ExperimentRunner runner(tinyOptions(file.path()));
        runner.openJournals(std::cerr);
        SweepFarm farm(runner);
        runSweep(farm, 2);
        originalText = recordsText(runner);
    }

    std::vector<std::string> lines;
    {
        std::ifstream in(file.path());
        for (std::string line; std::getline(in, line);)
            lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 3u); // header + one line per job
    {
        std::ofstream out(file.path(), std::ios::trunc);
        out << lines[0] << "\n";
        for (std::size_t i = 1; i < lines.size(); ++i) {
            std::string payload, error;
            ASSERT_TRUE(ResultJournal::unframe(lines[i], payload, error))
                << error;
            const std::size_t at = payload.find("\"jobs\": ");
            ASSERT_NE(at, std::string::npos) << payload;
            payload.insert(at, "\"threads\": 4, ");
            out << ResultJournal::frame(payload) << "\n";
        }
    }

    ExperimentRunner resumed(tinyOptions("", file.path()));
    std::ostringstream diag;
    EXPECT_EQ(resumed.openJournals(diag), 2u)
        << diag.str();
    SweepFarm farm(resumed);
    runSweep(farm, 2);
    ASSERT_EQ(resumed.records().size(), 2u);
    for (const RunRecord &record : resumed.records())
        EXPECT_TRUE(record.journalReplayed);
    EXPECT_EQ(maskRates(recordsText(resumed)), maskRates(originalText));
}

TEST(JournalResume, ReplayedRecordsAreNotReJournaled)
{
    TempFile file("no_rejournal");
    {
        ExperimentRunner runner(tinyOptions(file.path()));
        runner.openJournals(std::cerr);
        SweepFarm farm(runner);
        runSweep(farm, 3);
    }
    std::ifstream in(file.path(), std::ios::ate | std::ios::binary);
    const auto sizeBefore = in.tellg();
    in.close();

    // Resume with the SAME file attached for appending: the replayed
    // commits must not duplicate their journal lines.
    ExperimentRunner resumed(tinyOptions(file.path(), file.path()));
    std::ostringstream diag;
    resumed.openJournals(diag);
    SweepFarm farm(resumed);
    runSweep(farm, 3);

    std::ifstream in2(file.path(), std::ios::ate | std::ios::binary);
    EXPECT_EQ(in2.tellg(), sizeBefore);
}

TEST(JournalResume, CrashedChildResumesByteIdentically)
{
    TempFile file("crash_hard");
    constexpr int kJobs = 8;

    const pid_t pid = fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
        // Child: journaled sweep, killed by the counted crash_hard
        // point mid-append of record 5 (writeLine 6 = header + 5
        // records). _exit(137) with half a line written and fsynced —
        // the torn state a real SIGKILL/power loss leaves.
        FaultPlan::global().arm("crash_hard:6");
        ExperimentRunner runner(tinyOptions(file.path()));
        runner.openJournals(std::cerr);
        SweepFarm farm(runner);
        runSweep(farm, kJobs);
        _exit(42); // NOT crashing is the failure
    }

    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    ASSERT_EQ(WEXITSTATUS(status), 137)
        << "child did not die at the injected crash point";

    // The uninterrupted reference run.
    ExperimentRunner cold(tinyOptions());
    {
        SweepFarm farm(cold);
        runSweep(farm, kJobs);
    }

    // Resume: 4 durable records replay (record 5 was torn and is
    // dropped with a warning); the remaining 4 jobs simulate.
    ExperimentRunner resumed(tinyOptions("", file.path()));
    std::ostringstream diag;
    EXPECT_EQ(resumed.openJournals(diag), 4u);
    EXPECT_NE(diag.str().find("torn final line"), std::string::npos)
        << diag.str();
    {
        SweepFarm farm(resumed);
        runSweep(farm, kJobs);
    }

    ASSERT_EQ(resumed.records().size(),
              static_cast<std::size_t>(kJobs));
    for (int i = 0; i < kJobs; ++i)
        EXPECT_EQ(resumed.records()[i].journalReplayed, i < 4)
            << "record " << i;

    // kill -9 + --resume == uninterrupted run, timing fields aside.
    EXPECT_EQ(maskTiming(recordsText(resumed)),
              maskTiming(recordsText(cold)));
}

// -- fault-plan hygiene -------------------------------------------------------

TEST(FaultPlan, ResetForTestReArmsFromTheEnvironment)
{
    FaultPlan &plan = FaultPlan::global();
    plan.arm("stale_point:1");
    ASSERT_TRUE(plan.armed("stale_point"));

    // No BOP_FAULT in the test environment: reset clears everything.
    unsetenv("BOP_FAULT");
    plan.resetForTest();
    EXPECT_FALSE(plan.armed("stale_point"));

    setenv("BOP_FAULT", "env_point:3", 1);
    plan.resetForTest();
    EXPECT_TRUE(plan.armed("env_point"));
    EXPECT_FALSE(plan.armed("stale_point"));
    unsetenv("BOP_FAULT");
    plan.resetForTest();
    EXPECT_FALSE(plan.armed("env_point"));
}

// -- bounded retry ------------------------------------------------------------

/** Tiny-budget runner options with @p retries on @p jobs workers. */
RunnerOptions
retryOptions(int retries, int jobs = 1)
{
    RunnerOptions options = tinyOptions();
    options.retries = retries;
    options.jobs = jobs;
    return options;
}

TEST(Retry, TransientIoFailureRetriesToSuccessThroughTheFarm)
{
    ExperimentRunner runner(retryOptions(1));
    ArmedFaults armed("job_io:0"); // job 0 throws TransientIoError once
    SweepFarm farm(runner);
    runSweep(farm, 2);
    ASSERT_EQ(runner.records().size(), 2u);
    const RunRecord &retried = runner.records()[0];
    EXPECT_FALSE(retried.errored());
    EXPECT_EQ(retried.attempts, 2);
    EXPECT_EQ(runner.records()[1].attempts, 1);
}

TEST(Retry, PooledFarmRetriesTransientFailuresInPlace)
{
    // The retry happens on the failing job's own worker, before its
    // slot is committed: the record stream is the same as if the job
    // had succeeded first time, apart from its attempts count.
    ExperimentRunner runner(retryOptions(2, 3));
    ArmedFaults armed("job_io:1");
    SweepFarm farm(runner);
    runSweep(farm, 6);
    ASSERT_EQ(runner.records().size(), 6u);
    for (int i = 0; i < 6; ++i) {
        EXPECT_FALSE(runner.records()[i].errored()) << "job " << i;
        EXPECT_EQ(runner.records()[i].jobIndex, i) << "job " << i;
        EXPECT_EQ(runner.records()[i].attempts, i == 1 ? 2 : 1)
            << "job " << i;
    }
}

TEST(Retry, ExhaustedRetriesCommitAnIoErrorRecord)
{
    // job_wedge-style persistent failure is out of scope for "io";
    // here retries are off, so the single transient failure lands as
    // an error record of kind "io" with attempts counted.
    ExperimentRunner runner(tinyOptions());
    ASSERT_EQ(runner.options().retries, 0);
    ArmedFaults armed("job_io:0");
    SweepFarm farm(runner);
    runSweep(farm, 2);
    ASSERT_EQ(runner.records().size(), 2u);
    const RunRecord &failed = runner.records()[0];
    EXPECT_TRUE(failed.errored());
    EXPECT_EQ(failed.errorKind, "io");
    EXPECT_EQ(failed.attempts, 1);
    EXPECT_FALSE(runner.records()[1].errored());
}

TEST(Retry, DeterministicFailureKindsNeverRetry)
{
    ExperimentRunner runner(retryOptions(3));
    ArmedFaults armed("job_throw:0"); // kind "simulation"
    SweepFarm farm(runner);
    runSweep(farm, 1);
    ASSERT_EQ(runner.records().size(), 1u);
    EXPECT_TRUE(runner.records()[0].errored());
    EXPECT_EQ(runner.records()[0].errorKind, "simulation");
    EXPECT_EQ(runner.records()[0].attempts, 1);
}

TEST(Retry, ServeLoopRetriesInPlaceAndCountsInTheSummary)
{
    std::istringstream in("{\"workload\": \"429.mcf\"}\n"
                          "{\"workload\": \"429.mcf\", \"seed\": 1}\n");
    std::ostringstream out, diag;
    ExperimentRunner runner(retryOptions(1));
    int failures = -1;
    {
        ArmedFaults armed("job_io:0");
        failures = serveLoop(in, out, runner, diag);
    }
    EXPECT_EQ(failures, 0);
    EXPECT_NE(diag.str().find("serve: 2 accepted, 0 rejected, 0 failed, "
                              "1 retried, 0 replayed"),
              std::string::npos)
        << diag.str();
    EXPECT_NE(out.str().find("\"attempts\": 2"), std::string::npos)
        << out.str();
}

TEST(Retry, ServeLoopCountsJournalReplays)
{
    TempFile file("serve_replay");
    const std::string jobLine = "{\"workload\": \"429.mcf\"}\n";
    std::string firstOut;
    {
        std::istringstream in(jobLine);
        std::ostringstream out, diag;
        ExperimentRunner runner(tinyOptions(file.path()));
        runner.openJournals(diag);
        EXPECT_EQ(serveLoop(in, out, runner, diag), 0);
        firstOut = out.str();
    }
    std::istringstream in(jobLine);
    std::ostringstream out, diag;
    ExperimentRunner runner(tinyOptions("", file.path()));
    runner.openJournals(diag);
    EXPECT_EQ(serveLoop(in, out, runner, diag), 0);
    EXPECT_NE(diag.str().find("1 replayed"), std::string::npos)
        << diag.str();
    // queue_wait_seconds is stamped per serve session even for a
    // replayed job, so the full timing mask applies here.
    EXPECT_EQ(maskTiming(out.str()), maskTiming(firstOut));
}

// -- disk-backed checkpoint cache ---------------------------------------------

/** Scoped BOP_CKPT_DIR-style cache directory under /tmp. */
class TempCacheDir
{
  public:
    explicit TempCacheDir(const std::string &tag)
        : path_("/tmp/bop_journal_test_ckptdir_" + tag)
    {
        cleanup();
    }
    ~TempCacheDir() { cleanup(); }
    const std::string &path() const { return path_; }

  private:
    void cleanup()
    {
        // Entries are flat FNV-named files; no recursion needed.
        std::system(("rm -rf '" + path_ + "'").c_str());
    }
    std::string path_;
};

/** Runner options whose warm-prefix directory is @p dir. */
RunnerOptions
cacheOptions(const std::string &dir)
{
    RunnerOptions options = tinyOptions();
    options.checkpointDir = dir;
    return options;
}

TEST(CheckpointCache, WarmPrefixIsReloadedAcrossRunners)
{
    TempCacheDir dir("reload");
    const SystemConfig cfg = baselineConfig(1, PageSize::FourKB);

    ExperimentRunner first(cacheOptions(dir.path()));
    const RunStats &cold = first.run("429.mcf", cfg);
    EXPECT_EQ(first.prefixSimulations(), 1u);

    // A fresh process (fresh runner): the warm prefix comes off disk,
    // no warmup simulates, and the stats stay bit-identical.
    ExperimentRunner second(cacheOptions(dir.path()));
    const RunStats &warm = second.run("429.mcf", cfg);
    EXPECT_EQ(second.prefixSimulations(), 0u);
    EXPECT_EQ(warm.cycles, cold.cycles);
    EXPECT_EQ(warm.instructions, cold.instructions);
    EXPECT_EQ(warm.l2Misses, cold.l2Misses);
}

TEST(CheckpointCache, CorruptEntryIsRefusedAndFallsBackCold)
{
    TempCacheDir dir("corrupt");
    const SystemConfig cfg = baselineConfig(1, PageSize::FourKB);

    ExperimentRunner first(cacheOptions(dir.path()));
    const RunStats &cold = first.run("429.mcf", cfg);

    // The corrupt-entry fault flips a container byte on load:
    // validate-before-apply must refuse it and simulate the warmup
    // cold — identical stats, never a silently-wrong restore.
    ExperimentRunner second(cacheOptions(dir.path()));
    RunStats warm;
    {
        ArmedFaults armed("ckpt_cache_corrupt:1");
        warm = second.run("429.mcf", cfg);
    }
    EXPECT_EQ(second.prefixSimulations(), 1u);
    EXPECT_EQ(warm.cycles, cold.cycles);
    EXPECT_EQ(warm.instructions, cold.instructions);

    // The cold fallback overwrote the entry: a third runner loads it.
    ExperimentRunner third(cacheOptions(dir.path()));
    const RunStats &reloaded = third.run("429.mcf", cfg);
    EXPECT_EQ(third.prefixSimulations(), 0u);
    EXPECT_EQ(reloaded.cycles, cold.cycles);
}

TEST(CheckpointCache, OlderFormatVersionEntryFallsBackCold)
{
    // An entry saved under checkpoint format version 1 (the banked-L3
    // HIER layout) is refused at its version field, and the warmup
    // simulates cold, exactly as for a corrupt entry.
    TempCacheDir dir("old_version");
    const SystemConfig cfg = baselineConfig(1, PageSize::FourKB);

    ExperimentRunner first(cacheOptions(dir.path()));
    const RunStats &cold = first.run("429.mcf", cfg);

    std::size_t entries = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir.path())) {
        std::fstream f(entry.path(),
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f) << entry.path();
        // The container starts after the 8-byte magic, the u32 key
        // length and the key; its version field is 8 bytes in.
        unsigned char keyLen[4] = {};
        f.seekg(8);
        f.read(reinterpret_cast<char *>(keyLen), sizeof(keyLen));
        const std::streamoff version =
            12 + (keyLen[0] | keyLen[1] << 8 | keyLen[2] << 16 |
                  static_cast<std::streamoff>(keyLen[3]) << 24) + 8;
        const char version1[4] = {1, 0, 0, 0};
        f.seekp(version);
        f.write(version1, sizeof(version1));
        ASSERT_TRUE(f.good()) << entry.path();
        ++entries;
    }
    ASSERT_EQ(entries, 1u);

    ExperimentRunner second(cacheOptions(dir.path()));
    const RunStats &warm = second.run("429.mcf", cfg);
    EXPECT_EQ(second.prefixSimulations(), 1u);
    EXPECT_TRUE(warm == cold);
}

TEST(CheckpointCache, EntryRefusedMidRestoreFallsBackCold)
{
    // An entry whose headers and CRCs hold but whose last section is
    // one byte short of its layout (as an entry from a build with
    // another layout can be) is refused only after the earlier
    // sections applied. The fallback must warm a rebuilt system, not
    // the half-restored one.
    TempCacheDir dir("mid_restore");
    const SystemConfig cfg = baselineConfig(1, PageSize::FourKB);

    ExperimentRunner first(cacheOptions(dir.path()));
    const RunStats cold = first.run("429.mcf", cfg);

    std::size_t entries = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir.path())) {
        std::ifstream in(entry.path(), std::ios::binary);
        std::vector<std::uint8_t> bytes(
            (std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
        in.close();
        const std::uint32_t key_len = bytes[8] | bytes[9] << 8 |
                                      bytes[10] << 16 |
                                      std::uint32_t{bytes[11]} << 24;
        const std::string key(bytes.begin() + 12,
                              bytes.begin() + 12 + key_len);
        std::vector<std::uint8_t> container =
            decodeCacheEntry(std::move(bytes), key);

        // Walk to the last section's header and drop its last byte.
        std::size_t pos = checkpointHeaderBytes;
        std::uint64_t length = 0;
        for (std::size_t s = 0; s < checkpointSectionCount; ++s) {
            length = 0;
            for (int b = 7; b >= 0; --b)
                length = length << 8 | container[pos + 4 + b];
            if (s + 1 < checkpointSectionCount)
                pos += checkpointSectionHeaderBytes + length;
        }
        ASSERT_EQ(pos + checkpointSectionHeaderBytes + length,
                  container.size());
        container.pop_back();
        --length;
        for (int b = 0; b < 8; ++b)
            container[pos + 4 + b] =
                static_cast<std::uint8_t>(length >> (8 * b));
        const std::uint32_t crc =
            crc32(container.data() + pos + checkpointSectionHeaderBytes,
                  length);
        for (int b = 0; b < 4; ++b)
            container[pos + 12 + b] =
                static_cast<std::uint8_t>(crc >> (8 * b));

        std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
        const std::vector<std::uint8_t> rewritten =
            encodeCacheEntry(key, container);
        out.write(reinterpret_cast<const char *>(rewritten.data()),
                  static_cast<std::streamsize>(rewritten.size()));
        ASSERT_TRUE(out.good()) << entry.path();
        ++entries;
    }
    ASSERT_EQ(entries, 1u);

    ExperimentRunner second(cacheOptions(dir.path()));
    const RunStats warm = second.run("429.mcf", cfg);
    EXPECT_EQ(second.prefixSimulations(), 1u);
    EXPECT_TRUE(warm == cold);
}

TEST(CheckpointCache, WithoutADirectoryJobsRunCold)
{
    // A job shares its warm-up exactly when a directory is set: with
    // none, nothing is stored, each runner simulates cold, and the
    // record says so.
    const SystemConfig cfg = baselineConfig(1, PageSize::FourKB);
    ExperimentRunner a(cacheOptions(""));
    ASSERT_EQ(a.options().checkpointDir, "");
    EXPECT_FALSE(a.jobFor("429.mcf", cfg).share);
    const RunStats &one = a.run("429.mcf", cfg);
    EXPECT_EQ(a.prefixSimulations(), 0u);
    EXPECT_EQ(a.records().at(0).checkpoint, "");

    ExperimentRunner b(cacheOptions(""));
    const RunStats &two = b.run("429.mcf", cfg);
    EXPECT_EQ(b.prefixSimulations(), 0u);
    EXPECT_TRUE(one == two);
}

} // namespace
} // namespace bop
