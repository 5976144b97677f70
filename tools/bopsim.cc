/**
 * @file
 * bopsim — command-line driver for the simulator.
 *
 * Runs one workload (a built-in SPEC-like generator or a binary trace
 * file) under one configuration and prints the run's statistics,
 * including the prefetch quality metrics. This is the entry point a
 * downstream user reaches for before writing code against the library.
 *
 * Examples:
 *   bopsim --list
 *   bopsim --workload 462.libquantum --prefetcher bo
 *   bopsim --workload 433.milc --prefetcher fixed --offset 32 \
 *          --page 4m --cores 2
 *   bopsim --trace my.trace --prefetcher bo-dpc2 --instr 1000000
 *   bopsim --serve --jobs 4 < jobs.ndjson > records.ndjson
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>

#include <iostream>

#include "harness/experiment.hh"
#include "harness/json_report.hh"
#include "harness/options.hh"
#include "harness/serve.hh"
#include "sim/system.hh"
#include "trace/trace_io.hh"
#include "trace/workloads.hh"

namespace
{

void
usage(const char *argv0)
{
    std::cout
        << "usage: " << argv0 << " [options]\n\n"
        << "design point (the same fields as --serve job lines; defaults:\n"
           "paper baseline, Table 1; BO parameters need --prefetcher bo):\n";
    bop::printConfigFieldUsage(std::cout);
    std::cout
        << "\n"
           "trace replay (instead of --workload):\n"
           "  --trace FILE[,FILE...]\n"
           "                      trace file(s): BOPTRACE or ChampSim/DPC,\n"
           "                      .gz/.xz ok, format autodetected; with\n"
           "                      --cores N, file i drives core i and any\n"
           "                      remaining cores run the thrasher\n"
           "  --skip N            discard the first N trace instructions\n"
           "                      (a seek for BOPTRACE; ChampSim decodes\n"
           "                      and discards); requires --trace\n"
           "  --sample M          replay a window of at most M trace\n"
           "                      instructions (SimPoint-style slicing);\n"
           "                      requires --trace\n"
           "  --list              list built-in workloads and exit\n"
           "\n"
           "batch service:\n"
           "  --serve             read newline-delimited JSON job objects\n"
           "                      from stdin, stream one run record back\n"
           "                      per job as it completes; see README\n"
           "                      \"Sweep farm & serve mode\".\n"
           "                      SIGINT/SIGTERM drain gracefully: no new\n"
           "                      lines accepted, in-flight jobs answer\n"
           "\n"
           "checkpointing (format: docs/CHECKPOINT_FORMAT.md):\n"
           "  --save-checkpoint FILE\n"
           "                      write the warm state to FILE at the\n"
           "                      warmup/measure boundary, then measure\n"
           "  --restore-checkpoint FILE\n"
           "                      restore the warm state from FILE instead\n"
           "                      of simulating the warmup, then measure;\n"
           "                      statistics are bit-identical to the\n"
           "                      uninterrupted run's\n"
           "\n"
           "run control:\n"
           "  --json PATH         write a machine-readable run record\n"
           "\n"
           "runner options (for --serve):\n";
    bop::printRunnerOptionsUsage(std::cout, bop::OptionReader::Bopsim);
}

[[noreturn]] void
die(const std::string &msg)
{
    std::fprintf(stderr, "bopsim: %s\n", msg.c_str());
    std::exit(1);
}

/** Raised by SIGINT/SIGTERM; --serve drains gracefully when set. */
std::atomic<bool> stop_requested{false};

void
onStopSignal(int)
{
    stop_requested.store(true, std::memory_order_relaxed);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace bop;

    std::string trace_file;
    std::string json_path;
    std::string save_ckpt;
    std::string restore_ckpt;
    std::uint64_t skip = 0;
    std::uint64_t sample = 0;
    bool serve = false;
    std::string runner_flag; ///< the first runner flag given, if any
    std::string single_flag; ///< the first single-run flag given, if any
    RunnerOptions opts;
    JobSpec job;
    FieldsGiven given = 0;

    auto next_arg = [&](int &i) -> std::string {
        if (i + 1 >= argc)
            die(std::string(argv[i]) + " needs an argument");
        return argv[++i];
    };
    // A numeric flag's value must be a whole number its field holds.
    auto whole = [&](int &i, auto &out) {
        const std::string name = argv[i];
        out = wholeOption<std::remove_reference_t<decltype(out)>>(
            name, next_arg(i));
    };

    try {
        opts = RunnerOptions::fromEnv(OptionReader::Bopsim);
        job = defaultJob(opts.budget);
        for (int i = 1; i < argc; ++i) {
            if (parseConfigFlag(argc, argv, i, job, given))
                continue; // a design-point field
            const std::string arg = argv[i];
            if (arg == "--help" || arg == "-h") {
                usage(argv[0]);
                return 0;
            } else if (arg == "--list") {
                for (const auto &name : benchmarkNames())
                    std::printf("%s\n", name.c_str());
                return 0;
            } else if (opts.parseFlag(OptionReader::Bopsim, argc, argv, i)) {
                if (runner_flag.empty())
                    runner_flag = arg;
                continue;
            } else if (arg == "--serve") {
                serve = true;
                continue;
            } else if (arg == "--trace") {
                trace_file = next_arg(i);
            } else if (arg == "--skip") {
                whole(i, skip);
            } else if (arg == "--sample") {
                whole(i, sample);
            } else if (arg == "--save-checkpoint") {
                save_ckpt = next_arg(i);
            } else if (arg == "--restore-checkpoint") {
                restore_ckpt = next_arg(i);
            } else if (arg == "--json") {
                json_path = next_arg(i);
            } else {
                usage(argv[0]);
                die("unknown option '" + arg + "'");
            }
            if (single_flag.empty())
                single_flag = arg;
        }
    } catch (const std::invalid_argument &e) {
        die(e.what());
    }
    // The budgets are also the default of every --serve job line.
    opts.budget = job.budget;
    const std::string &workload = job.benchmark;
    const SystemConfig &cfg = job.cfg;
    const std::uint64_t warmup = opts.budget.warmup;
    const std::uint64_t instr = opts.budget.measure;

    if (serve) {
        // Each job line carries its own design point; the flags give
        // only the budgets every line defaults to.
        const auto fields = configFields();
        for (std::size_t r = 0; r < fields.size(); ++r) {
            const std::string key = fields[r].key;
            if (((given >> r) & 1) && key != "warmup" && key != "instr")
                die(std::string(fields[r].flag) +
                    " is not read with --serve: each job line sets \"" +
                    key + "\"");
        }
        if (!single_flag.empty())
            die(single_flag + " is not read with --serve");
        ExperimentRunner runner(opts);
        try {
            runner.openJournals(std::cerr);
        } catch (const std::exception &e) {
            die(e.what());
        }

        // Graceful drain on SIGINT/SIGTERM: no SA_RESTART, so a
        // signal arriving while the reader blocks in getline makes
        // the read fail with EINTR and the loop falls through to the
        // drain instead of waiting for more input.
        struct sigaction sa;
        std::memset(&sa, 0, sizeof sa);
        sa.sa_handler = onStopSignal;
        sigemptyset(&sa.sa_mask);
        sigaction(SIGINT, &sa, nullptr);
        sigaction(SIGTERM, &sa, nullptr);

        const int failures =
            serveLoop(std::cin, std::cout, runner, std::cerr,
                      &stop_requested);
        if (failures) {
            std::fprintf(stderr, "bopsim: %d job(s) rejected or failed\n",
                         failures);
            return 1;
        }
        return 0;
    }

    if (!runner_flag.empty())
        die(runner_flag + " is read only with --serve");
    if (const ConfigField *row = unreadField(job, given)) {
        die(std::string(row->flag) + " is read only with --prefetcher " +
            enumName(*row->onlyWith).names[0]);
    }
    if (workload.empty() == trace_file.empty())
        die("select exactly one of --workload / --trace (see --help)");
    if ((skip || sample) && trace_file.empty())
        die("--skip/--sample window trace replay; use them with --trace");

    try {
        std::vector<std::unique_ptr<TraceSource>> traces;
        std::string trace_source;
        if (!trace_file.empty()) {
            // Per-core assignment: file i drives core i.
            std::vector<std::string> files;
            std::size_t begin = 0;
            while (begin <= trace_file.size()) {
                const std::size_t comma = trace_file.find(',', begin);
                const std::size_t end = comma == std::string::npos
                                            ? trace_file.size()
                                            : comma;
                if (end > begin)
                    files.push_back(
                        trace_file.substr(begin, end - begin));
                if (comma == std::string::npos)
                    break;
                begin = comma + 1;
            }
            if (files.empty())
                die("--trace needs at least one file");
            if (static_cast<int>(files.size()) > cfg.activeCores) {
                die("--trace names " + std::to_string(files.size()) +
                    " files but only " +
                    std::to_string(cfg.activeCores) +
                    " cores are active (raise --cores)");
            }
            for (const std::string &file : files) {
                auto trace =
                    std::make_unique<FileTrace>(file, skip, sample);
                if (!trace_source.empty())
                    trace_source += "+";
                trace_source += trace->sourceTag();
                traces.push_back(std::move(trace));
            }
        } else {
            traces.push_back(makeWorkload(workload, cfg.seed));
        }
        for (int c = static_cast<int>(traces.size());
             c < cfg.activeCores; ++c) {
            traces.push_back(
                makeThrasher(cfg.seed + static_cast<unsigned>(c)));
        }
        const std::string label = traces.front()->name();

        System sys(cfg, std::move(traces));
        const auto t0 = std::chrono::steady_clock::now();
        if (restore_ckpt.empty())
            sys.warmup(warmup);
        else
            sys.restoreCheckpoint(restore_ckpt);
        if (!save_ckpt.empty())
            sys.saveCheckpoint(save_ckpt);
        const RunStats s = sys.measure(instr);
        const double wall = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();

        std::printf("workload     : %s\n", label.c_str());
        if (!trace_source.empty())
            std::printf("trace source : %s\n", trace_source.c_str());
        std::printf("config       : %s\n", cfg.describe().c_str());
        if (restore_ckpt.empty()) {
            std::printf("window       : %llu warm-up + %llu measured\n",
                        static_cast<unsigned long long>(warmup),
                        static_cast<unsigned long long>(instr));
        } else {
            std::printf("window       : restored %s + %llu measured\n",
                        restore_ckpt.c_str(),
                        static_cast<unsigned long long>(instr));
        }
        std::printf("\n");
        std::printf("IPC          : %.4f\n", s.ipc());
        std::printf("cycles       : %llu\n",
                    static_cast<unsigned long long>(s.cycles));
        std::printf("L2 accesses  : %llu  (MPKI %.2f)\n",
                    static_cast<unsigned long long>(s.l2Accesses),
                    s.l2Mpki());
        std::printf("L3 accesses  : %llu\n",
                    static_cast<unsigned long long>(s.l3Accesses));
        std::printf("DRAM acc/ki  : %.2f  (%llu reads, %llu writes)\n",
                    s.dramPer1kInstr(),
                    static_cast<unsigned long long>(s.dramReads),
                    static_cast<unsigned long long>(s.dramWrites));
        std::printf("\n");
        std::printf("L2 prefetches: %llu issued, %llu filled, "
                    "%llu dropped\n",
                    static_cast<unsigned long long>(s.l2PrefIssued),
                    static_cast<unsigned long long>(s.l2PrefFills),
                    static_cast<unsigned long long>(s.l2PrefDropped));
        std::printf("  useful     : %llu timely + %llu late\n",
                    static_cast<unsigned long long>(s.l2PrefetchedHits),
                    static_cast<unsigned long long>(s.l2LatePromotions));
        std::printf("  useless    : %llu (evicted unused)\n",
                    static_cast<unsigned long long>(
                        s.l2PrefUselessEvicted));
        std::printf("  coverage   : %.3f\n", s.prefetchCoverage());
        std::printf("  accuracy   : %.3f\n", s.prefetchAccuracy());
        std::printf("  timeliness : %.3f\n", s.prefetchTimeliness());
        if (cfg.l2Prefetcher == L2PrefetcherKind::BestOffset ||
            cfg.l2Prefetcher == L2PrefetcherKind::BestOffsetDpc2) {
            std::printf("\n");
            std::printf("BO phases    : %llu (%llu with prefetch off)\n",
                        static_cast<unsigned long long>(
                            s.boLearningPhases),
                        static_cast<unsigned long long>(
                            s.boPrefetchOffPhases));
            std::printf("BO offset    : %d (best score %d)\n",
                        s.boFinalOffset, s.boFinalScore);
        }
        RunRecord record{label, cfg.describe(), s, trace_source, wall};
        if (!restore_ckpt.empty())
            record.checkpoint = "restored";
        else if (!save_ckpt.empty())
            record.checkpoint = "saved";
        std::printf("engine       : %.3f s wall, %.2f Mcycles/s, "
                    "%.2f Minstr/s%s\n",
                    wall, record.mcyclesPerSecond(),
                    record.minstrPerSecond(),
                    sys.fastForwardEnabled() ? "" : " (no fast-forward)");
        if (!json_path.empty() &&
            !writeRunRecordsFile(json_path, {record})) {
            return 1;
        }
        return 0;
    } catch (const std::exception &e) {
        die(e.what());
    }
}
