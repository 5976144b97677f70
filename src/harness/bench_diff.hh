/**
 * @file
 * Bench-record trajectory diffing (ROADMAP: JSON trajectory diffing).
 *
 * CI uploads the `bench-json-records` artifact on every push; this
 * module compares two such artifacts and flags the runs whose key
 * metrics moved beyond a threshold, so a PR that regresses IPC,
 * prefetch coverage or DRAM traffic on any benchmark is caught from
 * the records alone — including the new trace-driven runs, which are
 * matched by their `trace_source` tag as well as workload + config.
 *
 * The parser accepts exactly the JSON the json_report writer emits
 * (an array of flat objects with string and number values); it is not
 * a general JSON library and rejects anything nested.
 */

#ifndef BOP_HARNESS_BENCH_DIFF_HH
#define BOP_HARNESS_BENCH_DIFF_HH

#include <cmath>
#include <istream>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace bop
{

/** One parsed run record: flat string and numeric fields. */
struct ParsedRunRecord
{
    std::map<std::string, std::string> strings;
    std::map<std::string, double> numbers;

    /** Identity of the run inside an artifact:
     *  "workload | config | trace_source". A missing or empty
     *  trace_source reads as "generator" so pre-trace_source
     *  artifacts keep matching modern ones. */
    std::string key() const;

    /** True for error records (farm error records and serve rejection
     *  objects both carry an "error" string field). Error records
     *  carry no simulated metrics: the differ pairs them by job_index
     *  instead of comparing IPC/coverage/throughput. */
    bool isError() const { return strings.count("error") != 0; }
};

/**
 * Parse a json_report-style array of flat records. Throws
 * std::runtime_error (with a character offset) on malformed input.
 */
std::vector<ParsedRunRecord> parseRunRecords(std::istream &in);

/**
 * Parse a single flat JSON object ("{...}", same subset as the array
 * parser). The `bopsim --serve` front end uses this for its
 * newline-delimited job lines. Throws std::runtime_error on
 * malformed input or trailing garbage after the object.
 */
ParsedRunRecord parseFlatRecord(std::istream &in);

/**
 * Store @p value into @p out when it is a whole number that T can
 * hold; otherwise return false and leave @p out untouched. Parsed
 * numbers are doubles, and casting a fractional, negative-into-
 * unsigned or out-of-range double is lossy or undefined behaviour,
 * so readers of outside input (serve job lines, journal replay)
 * convert their integer fields through this.
 */
template <typename T>
bool
wholeNumber(double value, T &out)
{
    // Both bounds are exact doubles (max() + 1 is a power of two), and
    // NaN fails every comparison.
    constexpr double lo = static_cast<double>(std::numeric_limits<T>::min());
    constexpr double hi =
        static_cast<double>(std::numeric_limits<T>::max()) + 1.0;
    if (!(value >= lo && value < hi) || value != std::floor(value))
        return false;
    out = static_cast<T>(value);
    return true;
}

/**
 * Parse a records file: either a json_report array artifact or an
 * NDJSON stream (one flat object per line — the `bopsim --serve`
 * output shape), sniffed from the first non-space character. Throws
 * when the file cannot be read or a record is malformed — except a
 * malformed FINAL line of an NDJSON stream, the signature of a
 * producer that crashed (or was cut off) mid-record: that line is
 * dropped, the surviving records are returned, and when @p warning is
 * non-null it receives a one-line description naming the line number.
 * Blank lines and serve rejection objects ({"error", "line"}) parse
 * fine and simply diff as metric-less records.
 */
std::vector<ParsedRunRecord>
parseRunRecordsFile(const std::string &path,
                    std::string *warning = nullptr);

/** Thresholds for flagging a metric movement as a regression. */
struct BenchDiffOptions
{
    double ipcRelative = 0.02;      ///< |ΔIPC| / old IPC
    double coverageAbsolute = 0.02; ///< |Δ prefetch_coverage|
    double dramRelative = 0.05;     ///< |Δ dram_per_1k_instr| / old
    /**
     * Relative drop in sim_mcycles_per_s (engine throughput) before a
     * run is flagged. One-sided — getting faster is never a
     * regression — and compared only when both artifacts carry a
     * non-zero measurement (older artifacts predate the field, and
     * CI machine noise dwarfs the simulated-metric thresholds, hence
     * the deliberately loose default). Set <= 0 to disable.
     */
    double throughputDropRelative = 0.5;
};

/** One flagged metric movement. */
struct BenchDelta
{
    std::string key;    ///< run identity (ParsedRunRecord::key())
    std::string metric; ///< "ipc", "prefetch_coverage", ...
    double oldValue = 0.0;
    double newValue = 0.0;
    double delta = 0.0; ///< newValue - oldValue
};

/** Two error records paired by job_index whose failure kind differs —
 *  a behavioural change (e.g. a timeout became an io error) that must
 *  not hide inside an otherwise-clean metric diff. */
struct ErrorKindMismatch
{
    long jobIndex = -1;
    std::string oldKind;
    std::string newKind;
};

/** Outcome of diffing two artifacts. */
struct BenchDiffResult
{
    std::vector<BenchDelta> flagged; ///< beyond-threshold movements
    std::vector<std::string> onlyOld; ///< runs that disappeared
    std::vector<std::string> onlyNew; ///< runs that appeared
    std::size_t compared = 0;         ///< success runs present in both

    /** Error records (isError()) are excluded from the metric
     *  comparisons above and paired by job_index instead. */
    std::size_t errorsCompared = 0; ///< error pairs present in both
    std::vector<ErrorKindMismatch> errorMismatches; ///< kind changed
    std::vector<std::string> errorOnlyOld; ///< "job N (kind)" gone
    std::vector<std::string> errorOnlyNew; ///< "job N (kind)" appeared

    bool clean() const
    {
        return flagged.empty() && errorMismatches.empty();
    }
};

/** Compare two artifacts run-by-run (matched on key()). */
BenchDiffResult diffRunRecords(const std::vector<ParsedRunRecord> &oldRecords,
                               const std::vector<ParsedRunRecord> &newRecords,
                               const BenchDiffOptions &options);

} // namespace bop

#endif // BOP_HARNESS_BENCH_DIFF_HH
