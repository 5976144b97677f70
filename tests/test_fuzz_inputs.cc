/**
 * @file
 * Byte-level mutation fuzzing of the parsers that read outside input:
 * `bopsim --serve` job lines (parseFlatRecord -> parseServeJobLine)
 * and result-journal replay (ResultJournal::load). The style follows
 * the checkpoint-container fuzz in test_checkpoint_format.cc: seeded
 * mutants of known-good input, and every mutant must either be
 * accepted or be rejected with a diagnostic — never a crash, never an
 * exception of an unexpected type. Run under ASan+UBSan (CI), which
 * additionally turns any out-of-range float-to-integer cast on the
 * way into an error.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "harness/bench_diff.hh"
#include "harness/journal.hh"
#include "harness/serve.hh"

namespace bop
{
namespace
{

/** Bytes that steer mutants toward the grammar's edges. */
const std::string kInteresting = "{}[]\":,-+.eE0159\\ \n\t\x7f\x80\xff";

/**
 * One seeded mutant of @p good: 1-4 edits, each a bit flip, a byte
 * replaced by an interesting one, an insertion, a deletion or a
 * duplicated span, occasionally followed by a truncation.
 */
std::string
mutate(const std::string &good, Rng &rng)
{
    std::string s = good;
    const int edits = 1 + static_cast<int>(rng.below(4));
    for (int e = 0; e < edits; ++e) {
        const std::size_t at =
            s.empty() ? 0 : static_cast<std::size_t>(rng.below(s.size()));
        const char pick =
            kInteresting[static_cast<std::size_t>(
                rng.below(kInteresting.size()))];
        switch (rng.below(5)) {
          case 0:
            if (!s.empty())
                s[at] = static_cast<char>(s[at] ^ (1u << rng.below(8)));
            break;
          case 1:
            if (!s.empty())
                s[at] = pick;
            break;
          case 2:
            s.insert(at, 1, pick);
            break;
          case 3:
            if (!s.empty())
                s.erase(at, 1);
            break;
          default: {
            const std::size_t len =
                1 + static_cast<std::size_t>(rng.below(8));
            s.insert(at, s.substr(at, len));
            break;
          }
        }
    }
    if (rng.below(8) == 0 && !s.empty())
        s.resize(static_cast<std::size_t>(rng.below(s.size())));
    return s;
}

// -- serve job lines ----------------------------------------------------------

const std::vector<std::string> kJobLines = {
    "{\"workload\": \"429.mcf\"}",
    "{\"workload\": \"462.libquantum\", \"prefetcher\": \"bo\", "
    "\"cores\": 2, \"page\": \"4m\", \"seed\": 7, \"warmup\": 20000, "
    "\"instr\": 80000}",
    "{\"workload\": \"470.lbm\", \"prefetcher\": \"fixed\", "
    "\"offset\": 3, \"channels\": 4, \"num_cores\": 4, \"l3\": \"drrip\"}",
    "{\"workload\": \"429.mcf\", \"bo_badscore\": 1, \"bo_rr\": 256, "
    "\"bo_degree\": 2, \"bo_adaptive\": 1, \"bo_coverage\": 1, "
    "\"dl1_stride\": 0, \"checkpoint\": \"share\"}",
    "{\"workload\": \"429.mcf\", \"seed\": 1e3, \"instr\": 2.5e4}",
};

/** Parse @p line both ways; fail the test on any contract breach.
 *  Returns whether the job line was accepted. */
bool
expectJobLineHandled(const std::string &line, const std::string &label)
{
    // The flat-record layer either parses or throws runtime_error
    // with a message; nothing else may escape it.
    try {
        std::istringstream is(line);
        parseFlatRecord(is);
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()), "") << label;
    }

    JobSpec job;
    std::string error;
    const bool accepted =
        parseServeJobLine(line, RunnerOptions{}, job, error);
    if (accepted) {
        EXPECT_FALSE(job.benchmark.empty()) << label << ": " << line;
    } else {
        EXPECT_FALSE(error.empty()) << label << ": " << line;
    }
    return accepted;
}

TEST(FuzzInputs, ServeJobLinesAcceptOrRejectWithDiagnostic)
{
    for (const std::string &good : kJobLines) {
        JobSpec job;
        std::string error;
        ASSERT_TRUE(parseServeJobLine(good, RunnerOptions{}, job, error))
            << good << ": " << error;
    }

    Rng rng(20261017);
    int rejected = 0;
    for (int iter = 0; iter < 4000; ++iter) {
        const std::string &good =
            kJobLines[static_cast<std::size_t>(rng.below(kJobLines.size()))];
        if (!expectJobLineHandled(mutate(good, rng),
                                  "fuzz iteration " + std::to_string(iter)))
            ++rejected;
    }
    // The mutator must actually reach the rejection paths.
    EXPECT_GT(rejected, 1000);
}

TEST(FuzzInputs, ServeJobLineNumbersAtTheEdgesOfEveryIntegerField)
{
    // Every integer field against values that are fractional, negative,
    // at and past the edges of int / uint64, or unparseable: each line
    // is accepted only when the value fits, and never cast blindly.
    const std::vector<std::string> fields = {
        "offset",      "cores",     "num_cores", "channels",
        "seed",        "bo_badscore", "bo_rr",   "bo_degree",
        "bo_coverage", "warmup",    "instr"};
    const std::vector<std::string> values = {
        "0",           "1",          "-1",         "1.5",
        "-0.5",        "2147483647", "2147483648", "-2147483648",
        "-2147483649", "4294967296", "18446744073709551615",
        "18446744073709551616", "1e30", "-1e30", "1e308", "1e999",
        "1e-400",      "-",          "e5",         "1e",
        "--1",         "1.2.3",      "+7"};
    for (const std::string &field : fields) {
        for (const std::string &value : values) {
            const std::string line = "{\"workload\": \"429.mcf\", \"" +
                                     field + "\": " + value + "}";
            expectJobLineHandled(line, field + "=" + value);
        }
    }

    JobSpec job;
    std::string error;
    EXPECT_FALSE(parseServeJobLine(
        "{\"workload\": \"429.mcf\", \"cores\": 2147483648}", RunnerOptions{},
        job, error));
    EXPECT_NE(error.find("\"cores\""), std::string::npos) << error;
    EXPECT_FALSE(parseServeJobLine(
        "{\"workload\": \"429.mcf\", \"seed\": 18446744073709551616}",
        RunnerOptions{}, job, error));
    EXPECT_NE(error.find("\"seed\""), std::string::npos) << error;
    EXPECT_FALSE(parseServeJobLine(
        "{\"workload\": \"429.mcf\", \"instr\": 1e999}", RunnerOptions{}, job,
        error));
    EXPECT_NE(error.find("malformed number"), std::string::npos) << error;

    ASSERT_TRUE(parseServeJobLine(
        "{\"workload\": \"429.mcf\", \"cores\": 2147483647, "
        "\"seed\": 18446744073709549568, \"instr\": 0}",
        RunnerOptions{}, job, error))
        << error;
    EXPECT_EQ(job.cfg.activeCores, 2147483647);
    EXPECT_EQ(job.cfg.seed, 18446744073709549568ull);
    EXPECT_EQ(job.budget.measure, 0u);
}

// -- journal replay -----------------------------------------------------------

class TempJournal
{
  public:
    explicit TempJournal(const std::string &tag)
        : path_("/tmp/bop_fuzz_inputs_" + tag)
    {
        std::remove(path_.c_str());
    }
    ~TempJournal() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

    void
    write(const std::string &bytes) const
    {
        std::ofstream out(path_, std::ios::binary | std::ios::trunc);
        out << bytes;
    }

  private:
    std::string path_;
};

constexpr std::uint64_t kWarmup = 500;
constexpr std::uint64_t kMeasure = 1500;

/** A small journal: header, two success records, one error record. */
std::string
goodJournalBytes()
{
    TempJournal file("seed");
    {
        ResultJournal journal;
        journal.open(file.path(), kWarmup, kMeasure);
        RunRecord ok;
        ok.workload = "429.mcf";
        ok.config = "sample-config";
        ok.stats.cycles = 123456;
        ok.stats.instructions = 78901;
        ok.stats.l2Misses = 987;
        ok.stats.dramReads = 321;
        ok.jobs = 2;
        ok.jobIndex = 0;
        ok.wallSeconds = 0.5;
        journal.append("key-0", ok);
        ok.jobIndex = 1;
        ok.attempts = 2;
        journal.append("key-1", ok);

        RunRecord failed;
        failed.workload = "470.lbm";
        failed.config = "sample-config";
        failed.jobIndex = 2;
        failed.errorKind = "io";
        failed.errorDetail = "injected fault";
        journal.append("key-2", failed);
    }
    std::ifstream in(file.path(), std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Load @p bytes as a journal: entries, or a runtime_error naming the
 *  problem. Returns false when the journal was refused. */
bool
expectJournalHandled(const TempJournal &file, const std::string &bytes,
                     const std::string &label)
{
    file.write(bytes);
    std::ostringstream diag;
    try {
        const auto entries =
            ResultJournal::load(file.path(), kWarmup, kMeasure, diag);
        for (const JournalEntry &entry : entries)
            EXPECT_FALSE(entry.key.empty()) << label;
        return true;
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("journal"), std::string::npos)
            << label << ": " << e.what();
        return false;
    }
}

TEST(FuzzInputs, JournalReplayRawByteMutants)
{
    // Arbitrary damage to the file: the per-line CRC catches nearly
    // all of it; torn tails are dropped with a warning.
    const std::string good = goodJournalBytes();
    TempJournal file("raw");
    ASSERT_TRUE(expectJournalHandled(file, good, "pristine"));

    Rng rng(20261018);
    for (int iter = 0; iter < 600; ++iter)
        expectJournalHandled(file, mutate(good, rng),
                             "raw iteration " + std::to_string(iter));
}

TEST(FuzzInputs, JournalReplayReframedPayloadMutants)
{
    // A hand-edited or foreign line carries a valid CRC over a damaged
    // payload, so the record decoder itself sees the mutant.
    const std::string good = goodJournalBytes();
    std::vector<std::string> lines;
    {
        std::istringstream is(good);
        for (std::string line; std::getline(is, line);)
            lines.push_back(line);
    }
    ASSERT_EQ(lines.size(), 4u);

    TempJournal file("reframed");
    Rng rng(20261019);
    int refused = 0;
    for (int iter = 0; iter < 1500; ++iter) {
        const std::size_t victim =
            1 + static_cast<std::size_t>(rng.below(lines.size() - 1));
        std::string bytes;
        for (std::size_t i = 0; i < lines.size(); ++i) {
            if (i != victim) {
                bytes += lines[i] + "\n";
                continue;
            }
            std::string payload, error;
            ASSERT_TRUE(ResultJournal::unframe(lines[i], payload, error));
            std::string bad = mutate(payload, rng);
            // A newline would split the line: keep the mutant on one.
            for (char &c : bad) {
                if (c == '\n')
                    c = ' ';
            }
            bytes += ResultJournal::frame(bad) + "\n";
        }
        if (!expectJournalHandled(file, bytes,
                                  "reframed iteration " +
                                      std::to_string(iter)))
            ++refused;
    }
    EXPECT_GT(refused, 300);
}

TEST(FuzzInputs, JournalIntegerFieldsMustBeWholeAndInRange)
{
    const std::string good = goodJournalBytes();
    std::vector<std::string> lines;
    {
        std::istringstream is(good);
        for (std::string line; std::getline(is, line);)
            lines.push_back(line);
    }
    TempJournal file("integers");
    for (const std::string &field : {"\"jobs\": 2", "\"job_index\": 1",
                                     "\"attempts\": 2"}) {
        for (const std::string &value : {"1e30", "-1e30", "0.5"}) {
            std::string payload, error;
            ASSERT_TRUE(ResultJournal::unframe(lines[2], payload, error));
            const std::size_t at = payload.find(field);
            ASSERT_NE(at, std::string::npos) << field;
            const std::size_t colon = payload.find(':', at);
            payload.replace(colon + 2, at + std::string(field).size() -
                                           colon - 2,
                            value);
            const std::string bytes = lines[0] + "\n" + lines[1] + "\n" +
                                      ResultJournal::frame(payload) + "\n";
            EXPECT_FALSE(expectJournalHandled(file, bytes,
                                              field + " -> " + value));
        }
    }
}

} // namespace
} // namespace bop
