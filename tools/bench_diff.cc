/**
 * @file
 * bench_diff — check that two bench-JSON artifacts hold the same runs.
 *
 * The two files (json_report arrays or `bopsim --serve` NDJSON
 * streams) must hold the same records in the same order, equal in
 * every field except the host-timing ones (hostTimingFields()). Each
 * difference is printed as one `DIFF record N "field": old -> new`
 * line. Exit status: 0 identical, 1 differences found, 2 usage error
 * or an unreadable/malformed file.
 *
 * Examples:
 *   bench_diff tests/data/fig06_ci.json fig06.json
 *   bench_diff serial.json jobs4.json
 */

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "harness/bench_diff.hh"

namespace
{

std::string
hostFieldList()
{
    std::string list;
    for (const std::string &field : bop::hostTimingFields())
        list += (list.empty() ? "" : ", ") + field;
    return list;
}

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s OLD.json NEW.json\n"
        "\n"
        "Requires the same records in the same order, every field equal\n"
        "except the host-timing ones (%s).\n"
        "Exit status: 0 identical, 1 differences, 2 usage or parse error.\n",
        argv0, hostFieldList().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        }
        if (arg.size() > 1 && arg[0] == '-') {
            std::fprintf(stderr, "bench_diff: unknown option %s\n",
                         arg.c_str());
            return 2;
        }
        paths.push_back(arg);
    }
    if (paths.size() != 2) {
        usage(argv[0]);
        return 2;
    }
    const std::string &old_path = paths[0];
    const std::string &new_path = paths[1];

    try {
        // NDJSON inputs tolerate a truncated trailing record (a
        // producer crash mid-write); it is dropped with a warning so
        // the surviving records still guard the comparison.
        std::string old_warning, new_warning;
        const auto old_records =
            bop::parseRunRecordsFile(old_path, &old_warning);
        const auto new_records =
            bop::parseRunRecordsFile(new_path, &new_warning);
        if (!old_warning.empty())
            std::fprintf(stderr, "bench_diff: warning: %s\n",
                         old_warning.c_str());
        if (!new_warning.empty())
            std::fprintf(stderr, "bench_diff: warning: %s\n",
                         new_warning.c_str());
        const std::vector<std::string> diffs =
            bop::exactDiff(old_records, new_records);
        constexpr std::size_t shown = 20;
        for (std::size_t d = 0; d < diffs.size() && d < shown; ++d)
            std::printf("DIFF %s\n", diffs[d].c_str());
        if (diffs.size() > shown)
            std::printf("... and %zu more\n", diffs.size() - shown);
        if (!diffs.empty())
            return 1;
        std::printf("exact: %zu records identical, host-timing "
                    "fields aside (%s -> %s)\n",
                    new_records.size(), old_path.c_str(), new_path.c_str());
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bench_diff: %s\n", e.what());
        return 2;
    }
}
