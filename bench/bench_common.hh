/**
 * @file
 * Shared helpers for the figure-regeneration benches.
 *
 * Every bench prints the same rows/series the paper's figure reports,
 * using the instruction budgets from BOP_WARMUP / BOP_INSTR
 * (defaults: 100K warm-up, 400K measured — the paper uses
 * 1B-instruction traces;
 * shapes are stable at these budgets because the generators are
 * steady-state). BOP_VERBOSE=1 streams per-run progress to stderr.
 */

#ifndef BOP_BENCH_BENCH_COMMON_HH
#define BOP_BENCH_BENCH_COMMON_HH

#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/table.hh"
#include "harness/experiment.hh"
#include "harness/json_report.hh"
#include "harness/options.hh"
#include "harness/sweep_farm.hh"
#include "trace/workloads.hh"

namespace bop
{

/**
 * One bench run: the runner options read from the environment and
 * then argv (plus --json PATH), the runner built from them with its
 * journals open (resume first, then attach), and a sweep farm on it.
 * An unknown flag, a bad value or a refused journal (budget mismatch,
 * corruption) exits with a message on stderr, so a typo cannot
 * silently run the full (expensive) figure and a sweep never proceeds
 * past a journal it could not honour. When @p positional is non-null,
 * one bare argument is accepted and stored there (e.g. a benchmark
 * name); @p adjust may change the options before the runner is built.
 */
class BenchSession
{
  public:
    BenchSession(int argc, char **argv, std::string *positional = nullptr,
                 void (*adjust)(RunnerOptions &) = nullptr)
        : runner(parse(argc, argv, positional, adjust)), farm(runner)
    {
        try {
            runner.openJournals(std::cerr);
        } catch (const std::exception &e) {
            std::cerr << e.what() << "\n";
            std::exit(2);
        }
    }

    /** Print the standard bench header. */
    void
    header(const std::string &what) const
    {
        const Budget &b = runner.options().budget;
        std::cout << "=== " << what << " ===\n"
                  << "(budgets: " << b.warmup << " warm-up + " << b.measure
                  << " measured instructions; override with BOP_WARMUP / "
                     "BOP_INSTR)\n\n";
    }

    /** Write the records when --json was given; the exit status. */
    int
    finish() const
    {
        if (jsonPath.empty())
            return 0;
        if (!runner.writeJson(jsonPath))
            return 1;
        std::cout << "\n[" << runner.records().size() << " run records -> "
                  << jsonPath << "]\n";
        return 0;
    }

  private:
    std::string jsonPath; ///< before runner: parse() sets it

    RunnerOptions
    parse(int argc, char **argv, std::string *positional,
          void (*adjust)(RunnerOptions &))
    {
        RunnerOptions opts;
        try {
            opts = RunnerOptions::fromEnv(OptionReader::Bench);
            for (int i = 1; i < argc; ++i) {
                if (opts.parseFlag(OptionReader::Bench, argc, argv, i))
                    continue;
                const std::string arg = argv[i];
                if (arg == "--json" && i + 1 < argc) {
                    jsonPath = argv[++i];
                } else if (positional && !arg.empty() && arg[0] != '-') {
                    *positional = arg;
                } else {
                    std::cerr << "usage: " << argv[0]
                              << " [--json PATH] [runner options]"
                              << (positional ? " [benchmark]" : "")
                              << "\n  --json PATH         write one JSON "
                                 "record per simulation run to PATH\n";
                    printRunnerOptionsUsage(std::cerr, OptionReader::Bench);
                    std::exit(arg == "--help" || arg == "-h" ? 0 : 2);
                }
            }
        } catch (const std::invalid_argument &e) {
            std::cerr << argv[0] << ": " << e.what() << "\n";
            std::exit(2);
        }
        if (adjust)
            adjust(opts);
        return opts;
    }

  public:
    ExperimentRunner runner;
    SweepFarm farm;
};

/**
 * The paper's standard per-benchmark speedup figure: one row per
 * benchmark, one column per (cores, page) grid point, plus the
 * geometric mean row. @p variant mutates the baseline config into the
 * configuration under test.
 *
 * The sweep runs in two passes: a prefetch pass submits every design
 * point to the farm (enumerated in the exact order the serial sweep
 * would first simulate them, so --jobs 1 reproduces the old record
 * order verbatim), then after drain() the table is computed through
 * the runner's warm memo cache.
 */
template <typename ConfigMutator>
void
printSpeedupFigure(SweepFarm &farm, ConfigMutator &&variant,
                   std::ostream &os = std::cout)
{
    for (const auto &bench : benchmarkNames()) {
        for (const auto &[cores, page] : baselineGrid()) {
            const SystemConfig base = baselineConfig(cores, page);
            SystemConfig cfg = base;
            variant(cfg);
            farm.submit(bench, cfg);
            farm.submit(bench, base);
        }
    }
    farm.drain();

    ExperimentRunner &runner = farm.runner();
    TextTable table;
    std::vector<std::string> header = {"benchmark"};
    for (const auto &[cores, page] : baselineGrid())
        header.push_back(gridLabel(cores, page));
    table.addRow(header);

    std::vector<std::vector<double>> speedups(baselineGrid().size());
    for (const auto &bench : benchmarkNames()) {
        std::vector<std::string> row = {bench};
        std::size_t g = 0;
        for (const auto &[cores, page] : baselineGrid()) {
            const SystemConfig base = baselineConfig(cores, page);
            SystemConfig cfg = base;
            variant(cfg);
            const double s = runner.speedup(bench, cfg, base);
            speedups[g++].push_back(s);
            row.push_back(TextTable::fmt(s));
        }
        table.addRow(row);
    }

    std::vector<std::string> gm = {"GM"};
    for (const auto &per_grid : speedups)
        gm.push_back(TextTable::fmt(geomean(per_grid)));
    table.addRow(gm);
    table.print(os);
}

/**
 * Geometric-mean-only figure (paper Figs. 7, 9, 10, 11): one row per
 * variant, one column per grid point. Each addVariant() farms its
 * design points out (prefetch pass in serial-sweep order, then
 * drain) before computing the row from the memo cache.
 */
class GeomeanFigure
{
  public:
    GeomeanFigure()
    {
        std::vector<std::string> header = {"variant"};
        for (const auto &[cores, page] : baselineGrid())
            header.push_back(gridLabel(cores, page));
        table.addRow(header);
    }

    template <typename ConfigMutator>
    void
    addVariant(SweepFarm &farm, const std::string &name,
               ConfigMutator &&variant)
    {
        for (const auto &[cores, page] : baselineGrid()) {
            const SystemConfig base = baselineConfig(cores, page);
            SystemConfig cfg = base;
            variant(cfg);
            for (const auto &bench : benchmarkNames()) {
                farm.submit(bench, cfg);
                farm.submit(bench, base);
            }
        }
        farm.drain();

        ExperimentRunner &runner = farm.runner();
        std::vector<std::string> row = {name};
        for (const auto &[cores, page] : baselineGrid()) {
            const SystemConfig base = baselineConfig(cores, page);
            SystemConfig cfg = base;
            variant(cfg);
            row.push_back(TextTable::fmt(
                runner.geomeanSpeedup(benchmarkNames(), cfg, base)));
        }
        table.addRow(row);
    }

    void print(std::ostream &os = std::cout) const { table.print(os); }

  private:
    TextTable table;
};

} // namespace bop

#endif // BOP_BENCH_BENCH_COMMON_HH
