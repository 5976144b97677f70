/**
 * @file
 * bench_diff — compare two bench-JSON artifacts and flag regressions.
 *
 * CI uploads `bench-json-records` on every push (fig06/11/12/13,
 * ext_scaling, bopsim --json). Point this tool at two such files —
 * typically the artifact from main and the one from a PR — and it
 * flags every run whose IPC, prefetch coverage or DRAM traffic moved
 * beyond a threshold. Exit status: 0 clean, 1 regressions flagged,
 * 2 usage/parse error or a vacuous comparison (two non-empty
 * artifacts sharing no run) — so it slots straight into CI without
 * key-format drift silently disarming the guard.
 *
 * Examples:
 *   bench_diff old/fig06.json new/fig06.json
 *   bench_diff old.json new.json --ipc 0.05 --coverage 0.03 --dram 0.10
 *   bench_diff --exact serial.json jobs4.json
 */

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/bench_diff.hh"
#include "harness/options.hh"

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
        "usage: %s OLD.json NEW.json [options]\n"
        "\n"
        "  --ipc FRAC       relative IPC threshold   (default 0.02)\n"
        "  --coverage ABS   absolute coverage threshold (default 0.02)\n"
        "  --dram FRAC      relative DRAM-traffic threshold (default 0.05)\n"
        "  --throughput FRAC\n"
        "                   relative sim_mcycles_per_s drop before an\n"
        "                   engine-speed regression is flagged; one-sided,\n"
        "                   skipped when either side lacks the field\n"
        "                   (default 0.5; 0 disables)\n"
        "  --exact          instead of thresholds, require the same\n"
        "                   records in the same order, every field\n"
        "                   equal except the host-timing ones (%s)\n",
        argv0, hostFieldList().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string old_path;
    std::string new_path;
    bop::BenchDiffOptions options;
    bool exact = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next_number = [&]() -> double {
            double value = 0.0;
            if (i + 1 >= argc || !bop::numberText(argv[i + 1], value)) {
                std::fprintf(stderr, "bench_diff: %s needs a number\n",
                             arg.c_str());
                std::exit(2);
            }
            ++i;
            return value;
        };
        if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg == "--ipc") {
            options.ipcRelative = next_number();
        } else if (arg == "--coverage") {
            options.coverageAbsolute = next_number();
        } else if (arg == "--dram") {
            options.dramRelative = next_number();
        } else if (arg == "--throughput") {
            options.throughputDropRelative = next_number();
        } else if (arg == "--exact") {
            exact = true;
        } else if (old_path.empty()) {
            old_path = arg;
        } else if (new_path.empty()) {
            new_path = arg;
        } else {
            usage(argv[0]);
            return 2;
        }
    }
    if (old_path.empty() || new_path.empty()) {
        usage(argv[0]);
        return 2;
    }

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
        if (exact) {
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
                        new_records.size(), old_path.c_str(),
                        new_path.c_str());
            return 0;
        }
        const bop::BenchDiffResult result =
            bop::diffRunRecords(old_records, new_records, options);

        std::printf("compared %zu runs, %zu error record pair(s) "
                    "(%s -> %s)\n",
                    result.compared, result.errorsCompared,
                    old_path.c_str(), new_path.c_str());
        for (const std::string &key : result.onlyOld)
            std::printf("  - disappeared: %s\n", key.c_str());
        for (const std::string &key : result.onlyNew)
            std::printf("  + new run    : %s\n", key.c_str());
        for (const std::string &what : result.errorOnlyOld)
            std::printf("  - error gone : %s\n", what.c_str());
        for (const std::string &what : result.errorOnlyNew)
            std::printf("  + new error  : %s\n", what.c_str());

        if (result.compared == 0 && result.errorsCompared == 0 &&
            !(old_records.empty() && new_records.empty())) {
            std::fprintf(stderr,
                         "bench_diff: the artifacts share no run — "
                         "key format drift? Nothing was guarded.\n");
            return 2;
        }
        if (result.clean()) {
            std::printf("no metric moved beyond thresholds "
                        "(ipc %.3f rel, coverage %.3f abs, dram %.3f rel)\n",
                        options.ipcRelative, options.coverageAbsolute,
                        options.dramRelative);
            return 0;
        }
        for (const bop::BenchDelta &d : result.flagged) {
            std::printf("REGRESSION %-18s %+.4f  (%.4f -> %.4f)  %s\n",
                        d.metric.c_str(), d.delta, d.oldValue,
                        d.newValue, d.key.c_str());
        }
        for (const bop::ErrorKindMismatch &m : result.errorMismatches) {
            std::printf("ERROR-KIND job %-6ld %s -> %s\n", m.jobIndex,
                        m.oldKind.c_str(), m.newKind.c_str());
        }
        std::printf("%zu metric movement(s) / %zu error-kind "
                    "mismatch(es) beyond thresholds\n",
                    result.flagged.size(), result.errorMismatches.size());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bench_diff: %s\n", e.what());
        return 2;
    }
}
