#include "harness/bench_diff.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
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

/** A field value as exactDiff prints it: numbers in the shortest
 *  spelling that reads back as the same double. */
std::string
spell(double value)
{
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

std::string
spell(const std::string &value)
{
    return value;
}

} // namespace

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
            return spell(it->second);
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
