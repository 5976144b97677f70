/**
 * @file
 * Bench-record parsing and exact comparison (`tools/bench_diff`).
 *
 * The simulator's contract is exact: the same design point gives the
 * same simulated statistics on every run, worker count and checkpoint
 * path. So two artifacts are compared record by record and field by
 * field, and only the host-side fields (wall clock, scheduling) may
 * differ. CI checks fig06 against the golden `tests/data/fig06_ci.json`
 * this way, and ctest checks the ChampSim fixture replay against
 * `tests/data/champsim_smoke.json`.
 *
 * The parser accepts exactly the JSON the json_report writer emits
 * (an array of flat objects with string and number values); it is not
 * a general JSON library and rejects anything nested. The journal and
 * the serve front end use it too.
 */

#ifndef BOP_HARNESS_BENCH_DIFF_HH
#define BOP_HARNESS_BENCH_DIFF_HH

#include <istream>
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
 * Host-side fields of a run record: wall clock and scheduling, which
 * differ between any two runs of the same sweep (`jobs` by
 * construction when the worker count changes). Simulated fields,
 * job_index and attempts are not among them.
 */
inline const std::vector<std::string> &
hostTimingFields()
{
    static const std::vector<std::string> fields = {
        "jobs", "wall_seconds", "queue_wait_seconds", "sim_mcycles_per_s",
        "retired_minstr_per_s"};
    return fields;
}

/**
 * Exact comparison (`bench_diff OLD NEW`): the two artifacts must hold
 * the same number of records in the same order, equal in every field
 * except hostTimingFields(). Returns one line per difference; empty
 * means identical.
 */
std::vector<std::string>
exactDiff(const std::vector<ParsedRunRecord> &oldRecords,
          const std::vector<ParsedRunRecord> &newRecords);

/**
 * Parse a records file: either a json_report array artifact or an
 * NDJSON stream (one flat object per line — the `bopsim --serve`
 * output shape), sniffed from the first non-space character. Throws
 * when the file cannot be read or a record is malformed — except a
 * malformed FINAL line of an NDJSON stream, the signature of a
 * producer that crashed (or was cut off) mid-record: that line is
 * dropped, the surviving records are returned, and when @p warning is
 * non-null it receives a one-line description naming the line number.
 * Blank lines are skipped; error records and serve rejection objects
 * ({"error", "line"}) parse like any other record.
 */
std::vector<ParsedRunRecord>
parseRunRecordsFile(const std::string &path,
                    std::string *warning = nullptr);

} // namespace bop

#endif // BOP_HARNESS_BENCH_DIFF_HH
