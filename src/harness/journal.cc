#include "harness/journal.hh"

#include <cstring>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include <unistd.h>

#include "common/fault.hh"
#include "common/serializer.hh"
#include "harness/bench_diff.hh"

namespace bop
{

namespace
{

/** " @crc32=" + 8 hex digits. */
constexpr std::size_t trailerSize = 16;
constexpr char trailerTag[] = " @crc32=";

std::string
hexU32(std::uint32_t v)
{
    char buf[9];
    std::snprintf(buf, sizeof buf, "%08x", v);
    return buf;
}

int
hexNibble(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    return -1;
}

/** Required lookups into a parsed payload; throw naming the field so
 *  a hand-edited or foreign line never decodes into a half-empty
 *  record. */
const std::string &
needString(const ParsedRunRecord &fields, const std::string &key)
{
    auto it = fields.strings.find(key);
    if (it == fields.strings.end())
        throw std::runtime_error("missing string field \"" + key + "\"");
    return it->second;
}

double
needNumber(const ParsedRunRecord &fields, const std::string &key)
{
    auto it = fields.numbers.find(key);
    if (it == fields.numbers.end())
        throw std::runtime_error("missing numeric field \"" + key + "\"");
    return it->second;
}

/** A required integer field; throws naming it unless the number is
 *  whole and fits T. */
template <typename T>
T
needWhole(const ParsedRunRecord &fields, const std::string &key)
{
    T out{};
    if (!wholeNumber(needNumber(fields, key), out))
        throw std::runtime_error("numeric field \"" + key +
                                 "\" is not a whole number in range");
    return out;
}

/** needWhole() for an optional field, @p fallback when absent. */
template <typename T>
T
wholeOr(const ParsedRunRecord &fields, const std::string &key, T fallback)
{
    return fields.numbers.count(key) ? needWhole<T>(fields, key) : fallback;
}

} // namespace

ResultJournal::~ResultJournal()
{
    if (file)
        std::fclose(file);
}

std::string
ResultJournal::frame(const std::string &payload)
{
    const std::uint32_t crc =
        crc32(reinterpret_cast<const std::uint8_t *>(payload.data()),
              payload.size());
    return payload + trailerTag + hexU32(crc);
}

bool
ResultJournal::unframe(const std::string &line, std::string &payload,
                       std::string &error)
{
    if (line.size() < trailerSize + 2) {
        error = "line too short for a CRC trailer";
        return false;
    }
    const std::size_t split = line.size() - trailerSize;
    if (line.compare(split, sizeof trailerTag - 1, trailerTag) != 0) {
        error = "missing \" @crc32=\" trailer";
        return false;
    }
    std::uint32_t stored = 0;
    for (std::size_t i = split + sizeof trailerTag - 1; i < line.size();
         ++i) {
        const int nibble = hexNibble(line[i]);
        if (nibble < 0) {
            error = "non-hex digit in CRC trailer";
            return false;
        }
        stored = (stored << 4) | static_cast<std::uint32_t>(nibble);
    }
    const std::uint32_t computed =
        crc32(reinterpret_cast<const std::uint8_t *>(line.data()), split);
    if (stored != computed) {
        error = "CRC mismatch (stored " + hexU32(stored) + ", computed " +
                hexU32(computed) + ")";
        return false;
    }
    payload = line.substr(0, split);
    return true;
}

std::string
ResultJournal::headerPayload(std::uint64_t warmup, std::uint64_t measure)
{
    std::ostringstream oss;
    oss << "{\"journal\": \"BOPJRNL1\", \"warmup\": " << warmup
        << ", \"measure\": " << measure << "}";
    return oss.str();
}

std::string
ResultJournal::encodeStatsHex(const RunStats &stats)
{
    std::vector<std::uint8_t> bytes;
    Serializer s(bytes);
    RunStats copy = stats;
    copy.serialize(s);
    std::string hex;
    hex.reserve(bytes.size() * 2);
    static const char digits[] = "0123456789abcdef";
    for (const std::uint8_t b : bytes) {
        hex += digits[b >> 4];
        hex += digits[b & 0xf];
    }
    return hex;
}

RunStats
ResultJournal::decodeStatsHex(const std::string &hex)
{
    if (hex.size() % 2 != 0)
        throw std::runtime_error("journal_stats: odd hex length");
    std::vector<std::uint8_t> bytes;
    bytes.reserve(hex.size() / 2);
    for (std::size_t i = 0; i < hex.size(); i += 2) {
        const int hi = hexNibble(hex[i]);
        const int lo = hexNibble(hex[i + 1]);
        if (hi < 0 || lo < 0)
            throw std::runtime_error("journal_stats: non-hex digit");
        bytes.push_back(static_cast<std::uint8_t>((hi << 4) | lo));
    }
    Serializer s(bytes.data(), bytes.size(), 0);
    RunStats stats;
    stats.serialize(s);
    s.finish("journal_stats");
    return stats;
}

std::string
ResultJournal::recordPayload(const std::string &key,
                             const RunRecord &record)
{
    std::ostringstream oss;
    writeRunRecord(oss, record);
    std::string payload = oss.str();
    // Splice the replay-only fields in before the closing brace: the
    // payload stays exactly the json_report grammar plus journal_key
    // (the memo key --resume replays under) and, for success records,
    // the bit-exact counter dump the human-readable fields round off.
    payload.pop_back();
    payload += ", \"journal_key\": \"" + jsonEscape(key) + "\"";
    if (!record.errored())
        payload +=
            ", \"journal_stats\": \"" + encodeStatsHex(record.stats) + "\"";
    payload += "}";
    return payload;
}

JournalEntry
ResultJournal::decodeRecordPayload(const std::string &payload)
{
    ParsedRunRecord fields;
    {
        std::istringstream is(payload);
        fields = parseFlatRecord(is);
    }

    JournalEntry entry;
    entry.key = needString(fields, "journal_key");
    RunRecord &r = entry.record;
    if (fields.strings.count("error") != 0) {
        r.errorKind = needString(fields, "kind");
        r.errorDetail = needString(fields, "detail");
        r.workload = needString(fields, "workload");
        r.config = needString(fields, "config");
        r.jobs = needWhole<int>(fields, "jobs");
        r.jobIndex = needWhole<long>(fields, "job_index");
        r.attempts = wholeOr(fields, "attempts", 1);
        return entry;
    }

    r.workload = needString(fields, "workload");
    r.config = needString(fields, "config");
    // "generator"/"none" are the serialised spellings of empty
    // fields; keeping them verbatim re-serialises identically.
    r.traceSource = needString(fields, "trace_source");
    r.checkpoint = needString(fields, "checkpoint");
    r.stats = decodeStatsHex(needString(fields, "journal_stats"));
    r.jobs = needWhole<int>(fields, "jobs");
    r.jobIndex = needWhole<long>(fields, "job_index");
    r.attempts = wholeOr(fields, "attempts", 1);
    r.wallSeconds = needNumber(fields, "wall_seconds");
    r.queueWaitSeconds = needNumber(fields, "queue_wait_seconds");
    return entry;
}

void
ResultJournal::writeLine(const std::string &line)
{
    FaultPlan &faults = FaultPlan::global();
    if (faults.fireCounted("journal_write_short")) {
        // Disk full mid-append: half the line lands, the commit is
        // never acknowledged. The torn line is the journal's final
        // line (this throw kills the sweep), so the next replay drops
        // it and re-simulates the job.
        std::fwrite(line.data(), 1, line.size() / 2, file);
        std::fflush(file);
        throw std::runtime_error(
            "journal: short write to '" + path_ + "' (" +
            std::to_string(line.size() / 2) + "/" +
            std::to_string(line.size()) + " bytes)");
    }
    if (faults.fireCounted("crash_hard")) {
        // kill -9 / power loss mid-commit: half the line reaches the
        // disk and the process dies on the spot — no unwinding, no
        // destructor flushes anywhere else. _exit, not exit, so the
        // torn state is exactly what a real crash leaves.
        std::fwrite(line.data(), 1, line.size() / 2, file);
        std::fflush(file);
        ::fsync(::fileno(file));
        ::_exit(137);
    }
    if (std::fwrite(line.data(), 1, line.size(), file) != line.size())
        throw std::runtime_error("journal: write to '" + path_ +
                                 "' failed");
    // fsync-on-commit: once append() returns, the record survives any
    // way this process can die.
    if (std::fflush(file) != 0 || ::fsync(::fileno(file)) != 0)
        throw std::runtime_error("journal: flush/fsync of '" + path_ +
                                 "' failed");
}

void
ResultJournal::open(const std::string &path, std::uint64_t warmup,
                    std::uint64_t measure)
{
    std::lock_guard<std::mutex> lk(m);
    if (file)
        throw std::runtime_error("journal: already open ('" + path_ +
                                 "')");

    bool needHeader = true;
    {
        std::ifstream in(path, std::ios::binary);
        std::string first;
        if (in && std::getline(in, first) && !first.empty()) {
            // Appending to an existing journal: its header must match
            // this session's budgets, or the mixed file would replay
            // records taken under a different design grid.
            std::string payload, error;
            if (!unframe(first, payload, error))
                throw std::runtime_error(
                    "journal: '" + path +
                    "' does not start with a valid header line (" +
                    error + ") — not a result journal?");
            if (payload != headerPayload(warmup, measure))
                throw std::runtime_error(
                    "journal: budget mismatch appending to '" + path +
                    "': header is " + payload + " but this run uses " +
                    headerPayload(warmup, measure) +
                    " — refusing (set BOP_WARMUP/BOP_INSTR to match or "
                    "start a fresh journal)");
            needHeader = false;
        }
    }

    file = std::fopen(path.c_str(), "ab");
    if (!file)
        throw std::runtime_error("journal: cannot open '" + path +
                                 "' for appending");
    path_ = path;
    if (needHeader)
        writeLine(frame(headerPayload(warmup, measure)) + "\n");
}

void
ResultJournal::append(const std::string &key, const RunRecord &record)
{
    std::lock_guard<std::mutex> lk(m);
    if (!file)
        return;
    writeLine(frame(recordPayload(key, record)) + "\n");
}

std::vector<JournalEntry>
ResultJournal::load(const std::string &path, std::uint64_t warmup,
                    std::uint64_t measure, std::ostream &diag)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("journal: cannot read '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();

    std::vector<JournalEntry> entries;
    std::size_t pos = 0;
    std::size_t lineNo = 0;
    bool sawHeader = false;
    while (pos < text.size()) {
        const std::size_t offset = pos;
        const std::size_t nl = text.find('\n', pos);
        ++lineNo;
        if (nl == std::string::npos) {
            // Torn final line: the producer died mid-append (crash,
            // short write). PR 9's truncated-NDJSON tolerance: drop
            // it with a warning; the job it carried re-simulates.
            diag << "journal: dropping torn final line " << lineNo
                 << " of '" << path << "' (byte offset " << offset
                 << ", " << (text.size() - offset)
                 << " bytes, no newline)\n";
            break;
        }
        const std::string line = text.substr(pos, nl - pos);
        pos = nl + 1;

        std::string payload, error;
        if (!unframe(line, payload, error))
            throw std::runtime_error(
                "journal: '" + path + "' line " + std::to_string(lineNo) +
                " at byte offset " + std::to_string(offset) + ": " +
                error);
        if (!sawHeader) {
            if (payload != headerPayload(warmup, measure)) {
                if (payload.find("\"BOPJRNL1\"") == std::string::npos)
                    throw std::runtime_error(
                        "journal: '" + path +
                        "' header is not BOPJRNL1 — not a result "
                        "journal");
                throw std::runtime_error(
                    "journal: budget mismatch resuming from '" + path +
                    "': header is " + payload + " but this run uses " +
                    headerPayload(warmup, measure) +
                    " — refusing to resume (config drift)");
            }
            sawHeader = true;
            continue;
        }
        try {
            entries.push_back(decodeRecordPayload(payload));
        } catch (const std::exception &e) {
            throw std::runtime_error(
                "journal: '" + path + "' line " + std::to_string(lineNo) +
                " at byte offset " + std::to_string(offset) + ": " +
                e.what());
        }
    }
    if (!sawHeader && !text.empty())
        throw std::runtime_error("journal: '" + path +
                                 "' has no complete header line");
    return entries;
}

} // namespace bop
