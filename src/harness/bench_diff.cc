#include "harness/bench_diff.hh"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

namespace bop
{

namespace
{

/** Minimal recursive-descent scanner over the json_report subset. */
class RecordParser
{
  public:
    explicit RecordParser(std::istream &in_) : in(in_) {}

    ParsedRunRecord parseOne()
    {
        ParsedRunRecord record = parseRecord();
        skipSpace();
        if (peek() != EOF)
            fail("trailing characters after the record");
        return record;
    }

    std::vector<ParsedRunRecord> parse()
    {
        std::vector<ParsedRunRecord> records;
        expect('[');
        skipSpace();
        if (peek() == ']') {
            get();
            return records;
        }
        while (true) {
            records.push_back(parseRecord());
            skipSpace();
            const int c = get();
            if (c == ']')
                break;
            if (c != ',')
                fail("expected ',' or ']' between records");
        }
        return records;
    }

  private:
    [[noreturn]] void fail(const std::string &what)
    {
        throw std::runtime_error("bench records: " + what +
                                 " at character offset " +
                                 std::to_string(pos));
    }

    int get()
    {
        const int c = in.get();
        if (c != EOF)
            ++pos;
        return c;
    }

    int peek() { return in.peek(); }

    void skipSpace()
    {
        while (std::isspace(peek()))
            get();
    }

    void expect(char want)
    {
        skipSpace();
        const int c = get();
        if (c != want)
            fail(std::string("expected '") + want + "'");
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            const int c = get();
            if (c == EOF)
                fail("unterminated string");
            if (c == '"')
                return out;
            if (c != '\\') {
                out += static_cast<char>(c);
                continue;
            }
            const int esc = get();
            switch (esc) {
              case '"':
              case '\\':
              case '/':
                out += static_cast<char>(esc);
                break;
              case 'n':
                out += '\n';
                break;
              case 't':
                out += '\t';
                break;
              case 'u': {
                // json_report only emits \u00xx control escapes.
                char hex[5] = {};
                for (int i = 0; i < 4; ++i) {
                    const int h = get();
                    if (!std::isxdigit(h))
                        fail("bad \\u escape");
                    hex[i] = static_cast<char>(h);
                }
                out += static_cast<char>(
                    std::strtol(hex, nullptr, 16));
                break;
              }
              default:
                fail("unsupported escape");
            }
        }
    }

    double parseNumber()
    {
        std::string text;
        while (true) {
            const int c = peek();
            if (c == '-' || c == '+' || c == '.' || c == 'e' ||
                c == 'E' || std::isdigit(c)) {
                text += static_cast<char>(get());
            } else {
                break;
            }
        }
        if (text.empty())
            fail("expected a number");
        // stod throws its own terse exceptions on "-", "e5" or
        // "1e999"; report every malformed spelling the same way.
        std::size_t used = 0;
        double value = 0.0;
        try {
            value = std::stod(text, &used);
        } catch (const std::logic_error &) {
            used = 0;
        }
        if (used != text.size())
            fail("malformed number '" + text + "'");
        return value;
    }

    ParsedRunRecord parseRecord()
    {
        ParsedRunRecord record;
        expect('{');
        skipSpace();
        if (peek() == '}') {
            get();
            return record;
        }
        while (true) {
            const std::string name = parseString();
            expect(':');
            skipSpace();
            if (peek() == '"')
                record.strings[name] = parseString();
            else
                record.numbers[name] = parseNumber();
            skipSpace();
            const int c = get();
            if (c == '}')
                return record;
            if (c != ',')
                fail("expected ',' or '}' inside a record");
            skipSpace();
        }
    }

    std::istream &in;
    std::size_t pos = 0;
};

std::string
lookupString(const ParsedRunRecord &record, const std::string &name)
{
    const auto it = record.strings.find(name);
    return it == record.strings.end() ? std::string() : it->second;
}

double
lookupNumber(const ParsedRunRecord &record, const std::string &name,
             double fallback)
{
    const auto it = record.numbers.find(name);
    return it == record.numbers.end() ? fallback : it->second;
}

std::string
checkpointOrDefault(const ParsedRunRecord &record)
{
    // Artifacts written before the checkpoint field existed are cold
    // runs, which modern writers serialise as "none".
    const std::string value = lookupString(record, "checkpoint");
    return value.empty() ? "none" : value;
}

std::string
traceSourceOrDefault(const ParsedRunRecord &record)
{
    // Artifacts written before the trace_source field existed must
    // keep matching their modern counterparts, which serialise
    // generator-driven runs as "generator".
    const std::string value = lookupString(record, "trace_source");
    return value.empty() ? "generator" : value;
}

/** Flag |new-old| (relative to @p base when > 0) beyond threshold. */
void
compareMetric(const ParsedRunRecord &oldRecord,
              const ParsedRunRecord &newRecord, const std::string &key,
              const std::string &metric, bool relative, double threshold,
              std::vector<BenchDelta> &flagged)
{
    const auto oldIt = oldRecord.numbers.find(metric);
    const auto newIt = newRecord.numbers.find(metric);
    if (oldIt == oldRecord.numbers.end() ||
        newIt == newRecord.numbers.end())
        return;
    const double oldValue = oldIt->second;
    const double newValue = newIt->second;
    double magnitude = std::fabs(newValue - oldValue);
    if (relative) {
        if (oldValue == 0.0) {
            // Any movement off a zero baseline is an infinite
            // relative change: flag it unconditionally.
            if (magnitude == 0.0)
                return;
            flagged.push_back(
                {key, metric, oldValue, newValue, newValue - oldValue});
            return;
        }
        magnitude /= std::fabs(oldValue);
    }
    if (magnitude > threshold) {
        flagged.push_back(
            {key, metric, oldValue, newValue, newValue - oldValue});
    }
}

/** Flag a one-sided relative *drop* in @p metric. Records without the
 *  metric (or with a zero value — "not measured") are skipped, so
 *  artifacts from before the field existed keep diffing cleanly. */
void
compareDropMetric(const ParsedRunRecord &oldRecord,
                  const ParsedRunRecord &newRecord,
                  const std::string &key, const std::string &metric,
                  double threshold, std::vector<BenchDelta> &flagged)
{
    if (threshold <= 0.0)
        return;
    const auto oldIt = oldRecord.numbers.find(metric);
    const auto newIt = newRecord.numbers.find(metric);
    if (oldIt == oldRecord.numbers.end() ||
        newIt == newRecord.numbers.end())
        return;
    const double oldValue = oldIt->second;
    const double newValue = newIt->second;
    if (oldValue <= 0.0 || newValue <= 0.0)
        return;
    if ((oldValue - newValue) / oldValue > threshold) {
        flagged.push_back(
            {key, metric, oldValue, newValue, newValue - oldValue});
    }
}

} // namespace

std::string
ParsedRunRecord::key() const
{
    return lookupString(*this, "workload") + " | " +
           lookupString(*this, "config") + " | " +
           traceSourceOrDefault(*this);
}

std::vector<ParsedRunRecord>
parseRunRecords(std::istream &in)
{
    return RecordParser(in).parse();
}

ParsedRunRecord
parseFlatRecord(std::istream &in)
{
    return RecordParser(in).parseOne();
}

std::vector<ParsedRunRecord>
parseRunRecordsFile(const std::string &path, std::string *warning)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open bench records: " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    // Sniff the shape: a json_report artifact opens with '['; anything
    // else is treated as NDJSON (the --serve output stream).
    std::size_t p = 0;
    while (p < text.size() &&
           std::isspace(static_cast<unsigned char>(text[p])))
        ++p;

    if (p >= text.size() || text[p] == '[') {
        std::istringstream is(text);
        try {
            return parseRunRecords(is);
        } catch (const std::runtime_error &e) {
            throw std::runtime_error(path + ": " + e.what());
        }
    }

    // NDJSON: parse line by line. A malformed line in the middle is
    // corruption and fails the comparison; a malformed LAST line is a
    // truncated trailing record from a crashed producer — tolerated
    // and reported so the surviving records stay comparable.
    std::vector<ParsedRunRecord> records;
    std::vector<std::pair<long, std::string>> lines;
    {
        std::istringstream is(text);
        std::string line;
        for (long lineNo = 1; std::getline(is, line); ++lineNo) {
            bool blank = true;
            for (const char c : line) {
                if (!std::isspace(static_cast<unsigned char>(c))) {
                    blank = false;
                    break;
                }
            }
            if (!blank)
                lines.emplace_back(lineNo, line);
        }
    }

    for (std::size_t i = 0; i < lines.size(); ++i) {
        std::istringstream is(lines[i].second);
        try {
            records.push_back(RecordParser(is).parseOne());
        } catch (const std::runtime_error &e) {
            if (i + 1 == lines.size()) {
                if (warning) {
                    *warning = path + ": line " +
                               std::to_string(lines[i].first) +
                               ": truncated trailing record ignored (" +
                               e.what() + ")";
                }
                break;
            }
            throw std::runtime_error(path + ": line " +
                                     std::to_string(lines[i].first) +
                                     ": " + e.what());
        }
    }
    return records;
}

namespace
{

/** "kind" of an error record ("unknown" when the field is missing —
 *  serve rejection objects from before the kind field existed). */
std::string
errorKindOrDefault(const ParsedRunRecord &record)
{
    const std::string kind = lookupString(record, "kind");
    return kind.empty() ? "unknown" : kind;
}

/** Pair the error records of both artifacts by job_index and report
 *  kind mismatches; a mismatch is a non-clean finding. Records
 *  without a job_index (-1) cannot be paired and are listed as
 *  one-sided. Last record per index wins, matching the journal's
 *  replay rule. */
void
diffErrorRecords(const std::vector<const ParsedRunRecord *> &oldErrors,
                 const std::vector<const ParsedRunRecord *> &newErrors,
                 BenchDiffResult &result)
{
    std::map<long, std::string> oldByIndex;
    for (const ParsedRunRecord *record : oldErrors) {
        const long index =
            static_cast<long>(lookupNumber(*record, "job_index", -1.0));
        if (index >= 0)
            oldByIndex[index] = errorKindOrDefault(*record);
        else
            result.errorOnlyOld.push_back(
                "job ? (" + errorKindOrDefault(*record) + ")");
    }
    std::map<long, bool> seen;
    for (const ParsedRunRecord *record : newErrors) {
        const long index =
            static_cast<long>(lookupNumber(*record, "job_index", -1.0));
        const std::string kind = errorKindOrDefault(*record);
        if (index < 0) {
            result.errorOnlyNew.push_back("job ? (" + kind + ")");
            continue;
        }
        const auto it = oldByIndex.find(index);
        if (it == oldByIndex.end()) {
            result.errorOnlyNew.push_back(
                "job " + std::to_string(index) + " (" + kind + ")");
            continue;
        }
        seen[index] = true;
        ++result.errorsCompared;
        if (it->second != kind)
            result.errorMismatches.push_back({index, it->second, kind});
    }
    for (const auto &[index, kind] : oldByIndex) {
        if (!seen.count(index))
            result.errorOnlyOld.push_back(
                "job " + std::to_string(index) + " (" + kind + ")");
    }
}

} // namespace

BenchDiffResult
diffRunRecords(const std::vector<ParsedRunRecord> &oldRecords,
               const std::vector<ParsedRunRecord> &newRecords,
               const BenchDiffOptions &options)
{
    BenchDiffResult result;

    // Error records never enter the metric comparison: an errored run
    // has no IPC/coverage/throughput to compare, and letting its key
    // match a success record's would silently skew the stats. They
    // are split off here and paired by job_index below.
    std::vector<const ParsedRunRecord *> oldErrors, newErrors;
    std::map<std::string, const ParsedRunRecord *> byKey;
    for (const ParsedRunRecord &record : oldRecords) {
        if (record.isError())
            oldErrors.push_back(&record);
        else
            byKey[record.key()] = &record;
    }

    std::map<std::string, bool> seen;
    for (const ParsedRunRecord &newRecord : newRecords) {
        if (newRecord.isError()) {
            newErrors.push_back(&newRecord);
            continue;
        }
        const std::string key = newRecord.key();
        const auto it = byKey.find(key);
        if (it == byKey.end()) {
            result.onlyNew.push_back(key);
            continue;
        }
        seen[key] = true;
        ++result.compared;
        const ParsedRunRecord &oldRecord = *it->second;
        compareMetric(oldRecord, newRecord, key, "ipc",
                      /*relative=*/true, options.ipcRelative,
                      result.flagged);
        compareMetric(oldRecord, newRecord, key, "prefetch_coverage",
                      /*relative=*/false, options.coverageAbsolute,
                      result.flagged);
        compareMetric(oldRecord, newRecord, key, "dram_per_1k_instr",
                      /*relative=*/true, options.dramRelative,
                      result.flagged);
        // Engine throughput is only comparable between runs scheduled
        // under the same sweep-farm jobs count — it oversubscribes the
        // host the way wall clock notices (records predating the field
        // read as 1) — AND with the same checkpoint provenance: a
        // warm-restored run skips the warmup, so its wall clock is
        // incommensurable with a cold run's even though the simulated
        // statistics are bit-identical. Records written by older
        // builds may carry a "threads" field; it is ignored.
        if (lookupNumber(oldRecord, "jobs", 1.0) ==
                lookupNumber(newRecord, "jobs", 1.0) &&
            checkpointOrDefault(oldRecord) ==
                checkpointOrDefault(newRecord)) {
            compareDropMetric(oldRecord, newRecord, key,
                              "sim_mcycles_per_s",
                              options.throughputDropRelative,
                              result.flagged);
        }
    }
    for (const ParsedRunRecord &record : oldRecords) {
        if (record.isError())
            continue;
        const std::string key = record.key();
        if (!seen.count(key))
            result.onlyOld.push_back(key);
    }

    diffErrorRecords(oldErrors, newErrors, result);
    return result;
}

std::vector<std::string>
exactDiff(const std::vector<ParsedRunRecord> &oldRecords,
          const std::vector<ParsedRunRecord> &newRecords)
{
    std::vector<std::string> diffs;
    if (oldRecords.size() != newRecords.size())
        diffs.push_back("record count " + std::to_string(oldRecords.size()) +
                        " -> " + std::to_string(newRecords.size()));

    // Walk the union of both records' fields; a field present on one
    // side only is a difference like any changed value.
    auto compare = [&diffs](std::size_t i, const auto &oldFields,
                            const auto &newFields) {
        auto show = [](const auto &fields, const std::string &name) {
            const auto it = fields.find(name);
            if (it == fields.end())
                return std::string("(absent)");
            std::ostringstream oss;
            oss.precision(17);
            oss << it->second;
            return oss.str();
        };
        std::set<std::string> names;
        for (const auto &kv : oldFields)
            names.insert(kv.first);
        for (const auto &kv : newFields)
            names.insert(kv.first);
        const std::vector<std::string> &host = hostTimingFields();
        for (const std::string &name : names) {
            if (std::find(host.begin(), host.end(), name) != host.end())
                continue;
            const std::string before = show(oldFields, name);
            const std::string after = show(newFields, name);
            if (before != after)
                diffs.push_back("record " + std::to_string(i) + " \"" +
                                name + "\": " + before + " -> " + after);
        }
    };
    const std::size_t common = std::min(oldRecords.size(), newRecords.size());
    for (std::size_t i = 0; i < common; ++i) {
        compare(i, oldRecords[i].strings, newRecords[i].strings);
        compare(i, oldRecords[i].numbers, newRecords[i].numbers);
    }
    return diffs;
}

} // namespace bop
