/**
 * @file
 * Tests for bench-record parsing and trajectory diffing: the parser
 * accepts exactly what json_report emits, runs are matched on
 * workload+config+trace_source, and IPC/coverage/DRAM movements are
 * flagged only beyond their thresholds.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "harness/bench_diff.hh"
#include "harness/json_report.hh"
#include "harness/options.hh"

namespace bop
{
namespace
{

std::vector<ParsedRunRecord>
parse(const std::string &text)
{
    std::istringstream in(text);
    return parseRunRecords(in);
}

std::string
record(const std::string &workload, double ipc, double coverage,
       double dram, const std::string &traceSource = "generator")
{
    std::ostringstream os;
    os << "{\"workload\": \"" << workload << "\", "
       << "\"config\": \"baseline\", "
       << "\"trace_source\": \"" << traceSource << "\", "
       << "\"ipc\": " << ipc << ", "
       << "\"prefetch_coverage\": " << coverage << ", "
       << "\"dram_per_1k_instr\": " << dram << "}";
    return os.str();
}

std::string
artifact(const std::vector<std::string> &records)
{
    std::string out = "[\n";
    for (std::size_t i = 0; i < records.size(); ++i) {
        out += "  " + records[i];
        if (i + 1 < records.size())
            out += ",";
        out += "\n";
    }
    return out + "]\n";
}

// -- parsing ------------------------------------------------------------------

TEST(BenchDiff, ParsesWriterOutput)
{
    RunStats stats;
    stats.cycles = 100;
    stats.instructions = 250;
    std::ostringstream os;
    writeRunRecords(os, {{"470.lbm", "cfg \"quoted\"", stats,
                          "smoke.champsim (champsim)"}});

    const auto records = parse(os.str());
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].strings.at("workload"), "470.lbm");
    EXPECT_EQ(records[0].strings.at("config"), "cfg \"quoted\"");
    EXPECT_EQ(records[0].strings.at("trace_source"),
              "smoke.champsim (champsim)");
    EXPECT_DOUBLE_EQ(records[0].numbers.at("ipc"), 2.5);
    EXPECT_EQ(records[0].key(),
              "470.lbm | cfg \"quoted\" | smoke.champsim (champsim)");
}

TEST(BenchDiff, EmptyArrayParses)
{
    EXPECT_TRUE(parse("[]").empty());
    EXPECT_TRUE(parse(" [ ] ").empty());
}

TEST(BenchDiff, MalformedInputRejectedWithOffset)
{
    for (const std::string bad :
         {"", "[", "[{\"a\": }]", "[{\"a\": 1}", "[{\"a\" 1}]",
          "[{\"a\": [1]}]"}) {
        EXPECT_THROW(parse(bad), std::runtime_error) << bad;
    }
}

// -- diffing ------------------------------------------------------------------

TEST(BenchDiff, SelfDiffIsClean)
{
    const auto records = parse(artifact(
        {record("a", 1.0, 0.5, 10.0), record("b", 2.0, 0.9, 0.0)}));
    const BenchDiffResult result =
        diffRunRecords(records, records, BenchDiffOptions{});
    EXPECT_TRUE(result.clean());
    EXPECT_EQ(result.compared, 2u);
    EXPECT_TRUE(result.onlyOld.empty());
    EXPECT_TRUE(result.onlyNew.empty());
}

TEST(BenchDiff, FlagsIpcBeyondRelativeThreshold)
{
    const auto before = parse(artifact({record("a", 1.00, 0.5, 10.0)}));
    const auto ok = parse(artifact({record("a", 1.01, 0.5, 10.0)}));
    const auto bad = parse(artifact({record("a", 0.90, 0.5, 10.0)}));

    EXPECT_TRUE(
        diffRunRecords(before, ok, BenchDiffOptions{}).clean());
    const BenchDiffResult result =
        diffRunRecords(before, bad, BenchDiffOptions{});
    ASSERT_EQ(result.flagged.size(), 1u);
    EXPECT_EQ(result.flagged[0].metric, "ipc");
    EXPECT_NEAR(result.flagged[0].delta, -0.10, 1e-9);
}

TEST(BenchDiff, FlagsCoverageBeyondAbsoluteThreshold)
{
    const auto before = parse(artifact({record("a", 1.0, 0.50, 10.0)}));
    const auto ok = parse(artifact({record("a", 1.0, 0.515, 10.0)}));
    const auto bad = parse(artifact({record("a", 1.0, 0.40, 10.0)}));

    EXPECT_TRUE(
        diffRunRecords(before, ok, BenchDiffOptions{}).clean());
    const BenchDiffResult result =
        diffRunRecords(before, bad, BenchDiffOptions{});
    ASSERT_EQ(result.flagged.size(), 1u);
    EXPECT_EQ(result.flagged[0].metric, "prefetch_coverage");
}

TEST(BenchDiff, FlagsDramTrafficAppearingFromZero)
{
    // Off a zero baseline any movement is an infinite relative
    // change, so even a tiny absolute delta must be flagged.
    const auto before = parse(artifact({record("a", 1.0, 0.5, 0.0)}));
    for (const double traffic : {3.0, 0.04}) {
        const auto after =
            parse(artifact({record("a", 1.0, 0.5, traffic)}));
        const BenchDiffResult result =
            diffRunRecords(before, after, BenchDiffOptions{});
        ASSERT_EQ(result.flagged.size(), 1u) << traffic;
        EXPECT_EQ(result.flagged[0].metric, "dram_per_1k_instr");
    }
}

TEST(BenchDiff, MissingTraceSourceDefaultsToGenerator)
{
    // Artifacts produced before the trace_source field existed must
    // keep matching their modern generator-driven counterparts.
    const auto old_style = parse(
        "[{\"workload\": \"a\", \"config\": \"baseline\", "
        "\"ipc\": 1.0}]");
    const auto new_style = parse(artifact({record("a", 1.2, 0.5, 0.0)}));
    EXPECT_EQ(old_style[0].key(), "a | baseline | generator");

    const BenchDiffResult result =
        diffRunRecords(old_style, new_style, BenchDiffOptions{});
    EXPECT_EQ(result.compared, 1u);
    ASSERT_EQ(result.flagged.size(), 1u);
    EXPECT_EQ(result.flagged[0].metric, "ipc");
}

TEST(BenchDiff, TraceSourceIsPartOfRunIdentity)
{
    // The same workload+config driven by a generator and by a trace
    // file are different runs; they must not be diffed against each
    // other.
    const auto gen = parse(artifact({record("a", 1.0, 0.5, 10.0)}));
    const auto traced = parse(artifact(
        {record("a", 2.0, 0.9, 20.0, "a.champsim (champsim)")}));
    const BenchDiffResult result =
        diffRunRecords(gen, traced, BenchDiffOptions{});
    EXPECT_EQ(result.compared, 0u);
    EXPECT_TRUE(result.clean());
    ASSERT_EQ(result.onlyOld.size(), 1u);
    ASSERT_EQ(result.onlyNew.size(), 1u);
}

TEST(BenchDiff, FlagsEngineThroughputDropsOneSided)
{
    auto rec = [](double mcps) {
        std::ostringstream os;
        os << "{\"workload\": \"a\", \"config\": \"baseline\", "
           << "\"trace_source\": \"generator\", \"ipc\": 1.0, "
           << "\"sim_mcycles_per_s\": " << mcps << "}";
        return os.str();
    };
    const auto before = parse(artifact({rec(10.0)}));
    const auto faster = parse(artifact({rec(30.0)}));
    const auto slower = parse(artifact({rec(4.0)}));
    const auto unmeasured = parse(artifact({rec(0.0)}));

    // Speedups and small movements are never flagged.
    EXPECT_TRUE(
        diffRunRecords(before, faster, BenchDiffOptions{}).clean());
    // A beyond-threshold drop is.
    const BenchDiffResult result =
        diffRunRecords(before, slower, BenchDiffOptions{});
    ASSERT_EQ(result.flagged.size(), 1u);
    EXPECT_EQ(result.flagged[0].metric, "sim_mcycles_per_s");
    // Unmeasured sides (0, or the field absent in old artifacts) and a
    // disabled threshold compare clean.
    EXPECT_TRUE(
        diffRunRecords(before, unmeasured, BenchDiffOptions{}).clean());
    EXPECT_TRUE(
        diffRunRecords(unmeasured, before, BenchDiffOptions{}).clean());
    EXPECT_TRUE(diffRunRecords(parse(artifact({record("a", 1.0, 0.5,
                                                      1.0)})),
                               slower, BenchDiffOptions{})
                    .clean());
    BenchDiffOptions off;
    off.throughputDropRelative = 0.0;
    EXPECT_TRUE(diffRunRecords(before, slower, off).clean());
}

TEST(BenchDiff, LegacyThreadsFieldDoesNotSplitTheComparison)
{
    // Records written before the intra-run thread knob was removed
    // carry "threads"; a new record has none. The pair still matches
    // on workload+config+trace_source, and the throughput gate still
    // compares it (the field used to exempt unequal thread counts).
    auto rec = [](const std::string &extra, double ipc, double mcps) {
        std::ostringstream os;
        os << "{\"workload\": \"a\", \"config\": \"baseline\", "
           << "\"trace_source\": \"generator\", \"ipc\": " << ipc
           << ", " << extra << "\"jobs\": 1, "
           << "\"sim_mcycles_per_s\": " << mcps << "}";
        return os.str();
    };
    const auto legacy = parse(artifact({rec("\"threads\": 4, ", 1.0, 10.0)}));
    const auto same = parse(artifact({rec("", 1.0, 10.0)}));
    const auto slower = parse(artifact({rec("", 1.0, 4.0)}));
    const auto lowerIpc = parse(artifact({rec("", 0.5, 10.0)}));

    const BenchDiffResult clean =
        diffRunRecords(legacy, same, BenchDiffOptions{});
    EXPECT_EQ(clean.compared, 1u);
    EXPECT_TRUE(clean.clean());
    EXPECT_TRUE(clean.onlyOld.empty());

    const BenchDiffResult drop =
        diffRunRecords(legacy, slower, BenchDiffOptions{});
    ASSERT_EQ(drop.flagged.size(), 1u);
    EXPECT_EQ(drop.flagged[0].metric, "sim_mcycles_per_s");

    const BenchDiffResult ipc =
        diffRunRecords(legacy, lowerIpc, BenchDiffOptions{});
    ASSERT_EQ(ipc.flagged.size(), 1u);
    EXPECT_EQ(ipc.flagged[0].metric, "ipc");
}

TEST(BenchDiff, ReportsAddedAndRemovedRuns)
{
    const auto before = parse(
        artifact({record("a", 1.0, 0.5, 10.0), record("b", 1.0, 0.5, 1.0)}));
    const auto after = parse(
        artifact({record("b", 1.0, 0.5, 1.0), record("c", 1.0, 0.5, 2.0)}));
    const BenchDiffResult result =
        diffRunRecords(before, after, BenchDiffOptions{});
    EXPECT_EQ(result.compared, 1u);
    ASSERT_EQ(result.onlyOld.size(), 1u);
    EXPECT_EQ(result.onlyOld[0].substr(0, 1), "a");
    ASSERT_EQ(result.onlyNew.size(), 1u);
    EXPECT_EQ(result.onlyNew[0].substr(0, 1), "c");
}

// -- file parsing (array vs NDJSON, crash tolerance) --------------------------

class TempFile
{
  public:
    explicit TempFile(const std::string &tag, const std::string &text)
        : path_("/tmp/bop_bench_diff_test_" + tag)
    {
        std::ofstream out(path_);
        out << text;
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

// -- exact mode (bench_diff --exact) -----------------------------------------

/** A farm record: simulated fields plus every host-timing field. */
std::string
farmRecord(const std::string &workload, long jobIndex, double wall,
           int jobs = 1)
{
    std::ostringstream os;
    os << "{\"workload\": \"" << workload << "\", "
       << "\"config\": \"baseline\", \"ipc\": 0.75, "
       << "\"jobs\": " << jobs << ", \"job_index\": " << jobIndex
       << ", \"attempts\": 1, \"wall_seconds\": " << wall
       << ", \"queue_wait_seconds\": " << wall / 10
       << ", \"sim_mcycles_per_s\": " << 1 / wall
       << ", \"retired_minstr_per_s\": " << 2 / wall << "}";
    return os.str();
}

/** A farm error record of failure kind @p kind. */
std::string
errorRecord(long jobIndex, const std::string &kind)
{
    return "{\"error\": \"job failed\", \"kind\": \"" + kind +
           "\", \"detail\": \"boom\", \"workload\": \"429.mcf\", "
           "\"config\": \"baseline\", \"jobs\": 1, \"job_index\": " +
           std::to_string(jobIndex) + ", \"attempts\": 1}";
}

TEST(BenchDiffExact, HostTimingDifferencesPass)
{
    const auto serial = parse(artifact(
        {farmRecord("429.mcf", 0, 0.5), farmRecord("470.lbm", 1, 0.7),
         errorRecord(2, "io")}));
    const auto jobs4 = parse(artifact({farmRecord("429.mcf", 0, 0.2, 4),
                                       farmRecord("470.lbm", 1, 0.3, 4),
                                       errorRecord(2, "io")}));
    EXPECT_TRUE(exactDiff(serial, jobs4).empty());
}

TEST(BenchDiffExact, JobIndexDifferenceFails)
{
    const auto a = parse(artifact({farmRecord("429.mcf", 0, 0.5)}));
    const auto b = parse(artifact({farmRecord("429.mcf", 1, 0.5)}));
    const std::vector<std::string> diffs = exactDiff(a, b);
    ASSERT_EQ(diffs.size(), 1u);
    EXPECT_EQ(diffs[0], "record 0 \"job_index\": 0 -> 1");
}

TEST(BenchDiffExact, RecordOrderDifferenceFails)
{
    const std::string mcf = farmRecord("429.mcf", 0, 0.5);
    const std::string lbm = farmRecord("470.lbm", 0, 0.5);
    EXPECT_FALSE(
        exactDiff(parse(artifact({mcf, lbm})), parse(artifact({lbm, mcf})))
            .empty());
}

TEST(BenchDiffExact, RecordCountDifferenceFails)
{
    const std::string mcf = farmRecord("429.mcf", 0, 0.5);
    const std::vector<std::string> diffs =
        exactDiff(parse(artifact({mcf, mcf})), parse(artifact({mcf})));
    ASSERT_EQ(diffs.size(), 1u);
    EXPECT_EQ(diffs[0], "record count 2 -> 1");
}

TEST(BenchDiffExact, ErrorKindDifferenceFails)
{
    const std::vector<std::string> diffs =
        exactDiff(parse(artifact({errorRecord(3, "io")})),
                  parse(artifact({errorRecord(3, "timeout")})));
    ASSERT_EQ(diffs.size(), 1u);
    EXPECT_EQ(diffs[0], "record 0 \"kind\": io -> timeout");
}

TEST(BenchDiffExact, FieldMissingOnOneSideFails)
{
    EXPECT_FALSE(exactDiff(parse(artifact({farmRecord("429.mcf", 0, 0.5)})),
                           parse(artifact({record("429.mcf", 0.75, 0.1,
                                                  1.0)})))
                     .empty());
}

TEST(BenchDiffExact, NumberTextIsWholeOrNothing)
{
    double v = 0.0;
    EXPECT_TRUE(numberText("0.25", v));
    EXPECT_EQ(v, 0.25);
    for (const char *bad : {"", "1k", "abc", " 5", "0x10", "inf", "nan"})
        EXPECT_FALSE(numberText(bad, v)) << bad;
    int n = 0;
    EXPECT_TRUE(wholeNumber(std::string("1e3"), n));
    EXPECT_EQ(n, 1000);
    EXPECT_FALSE(wholeNumber(std::string("1.5"), n));
    EXPECT_FALSE(wholeNumber(std::string("4294967296"), n));
}

TEST(BenchDiffFile, ArrayArtifactParsesWithoutWarning)
{
    TempFile file("array.json",
                  artifact({record("a", 1.0, 0.5, 10.0),
                            record("b", 1.2, 0.4, 8.0)}));
    std::string warning;
    const auto records = parseRunRecordsFile(file.path(), &warning);
    EXPECT_EQ(records.size(), 2u);
    EXPECT_TRUE(warning.empty()) << warning;
}

TEST(BenchDiffFile, NdjsonStreamParsesLineByLine)
{
    TempFile file("ndjson.json", record("a", 1.0, 0.5, 10.0) + "\n" +
                                     "\n" + // blank lines are fine
                                     record("b", 1.2, 0.4, 8.0) + "\n");
    std::string warning;
    const auto records = parseRunRecordsFile(file.path(), &warning);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].key().substr(0, 1), "a");
    EXPECT_TRUE(warning.empty()) << warning;
}

TEST(BenchDiffFile, TruncatedTrailingNdjsonLineToleratedWithWarning)
{
    // A producer killed mid-write leaves a half-record on the last
    // line; the survivors must stay comparable, and the warning names
    // the dropped line.
    TempFile file("truncated.ndjson",
                  record("a", 1.0, 0.5, 10.0) + "\n" +
                      record("b", 1.2, 0.4, 8.0) + "\n" +
                      "{\"workload\": \"c\", \"ipc\": 0.9");
    std::string warning;
    const auto records = parseRunRecordsFile(file.path(), &warning);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_NE(warning.find("line 3"), std::string::npos) << warning;
    EXPECT_NE(warning.find("truncated trailing record ignored"),
              std::string::npos)
        << warning;
}

TEST(BenchDiffFile, MidStreamCorruptionRejectedWithLineNumber)
{
    // Corruption anywhere BEFORE the last line is not a crash
    // signature — it fails the comparison, naming the line.
    TempFile file("corrupt.ndjson", record("a", 1.0, 0.5, 10.0) + "\n" +
                                        "{\"workload\": \"b\"\n" +
                                        record("c", 1.2, 0.4, 8.0) +
                                        "\n");
    try {
        parseRunRecordsFile(file.path());
        FAIL() << "mid-stream corruption parsed cleanly";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("line 2"),
                  std::string::npos)
            << e.what();
    }
}

TEST(BenchDiffFile, MissingFileRejected)
{
    EXPECT_THROW(
        parseRunRecordsFile("/tmp/bop_bench_diff_test_nonexistent"),
        std::runtime_error);
}

} // namespace
} // namespace bop
