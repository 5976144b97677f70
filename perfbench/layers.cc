/**
 * @file
 * perfbench_layers: the benchmark's traced per-layer program.
 *
 * Reads design points from stdin, one per line:
 *
 *     <mode> <workload> <prefetcher> <cores> <page> <seed> <warmup> <instr>
 *
 * where mode is "full" (traced run, untraced reference, checkpoint
 * save/restore and standalone layer replays) or "stats" (one plain
 * run, statistics only), page is "4k" or "4m". For every point it
 * prints one JSON line with the RunStats counters and the equality
 * checks on stdout. Spans are kept in memory and written to the
 * --spans file when the program ends, one JSON object per line:
 *
 *     {"id", "parent", "point", "name", "start_ns", "dur_ns", "count"}
 *
 * A span's self time is its duration minus that of its children. The
 * trace layer is timed by a TraceSource wrapper around every core's
 * source, whose accumulated time is attached to the enclosing
 * sim.warmup / sim.measure span as one aggregated "trace.next" child.
 *
 * Only public library surfaces are called: makeTraces, System,
 * SetAssocCache, MemoryController, BestOffsetPrefetcher and
 * ResultJournal.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "cache/replacement.hh"
#include "common/stats.hh"
#include "core/best_offset.hh"
#include "dram/mem_controller.hh"
#include "harness/experiment.hh"
#include "harness/journal.hh"
#include "harness/serve.hh"
#include "sim/system.hh"
#include "trace/workloads.hh"

namespace
{

using namespace bop;
using Clock = std::chrono::steady_clock;

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

struct Span
{
    long id;
    long parent;
    long point;
    std::string name;
    std::uint64_t startNs;
    std::uint64_t durNs;
    std::uint64_t count;
};

/** In-memory span recorder with an explicit open-span stack. */
class Tracer
{
  public:
    long
    open(const std::string &name, long point)
    {
        const long id = static_cast<long>(spans.size());
        const long parent = stack.empty() ? -1 : stack.back();
        spans.push_back({id, parent, point, name, nowNs(), 0, 1});
        stack.push_back(id);
        return id;
    }

    void
    close(long id, std::uint64_t count = 1)
    {
        Span &s = spans.at(static_cast<std::size_t>(id));
        s.durNs = nowNs() - s.startNs;
        s.count = count;
        stack.pop_back();
    }

    /** Attach an aggregated child (many short calls) to open span. */
    void
    addChild(const std::string &name, std::uint64_t dur_ns,
             std::uint64_t count)
    {
        const long parent = stack.back();
        const Span &p = spans.at(static_cast<std::size_t>(parent));
        spans.push_back({static_cast<long>(spans.size()), parent, p.point,
                         name, p.startNs, dur_ns, count});
    }

    void
    write(std::FILE *f) const
    {
        for (const Span &s : spans) {
            std::fprintf(f,
                         "{\"id\": %ld, \"parent\": %ld, \"point\": %ld, "
                         "\"name\": \"%s\", \"start_ns\": %llu, "
                         "\"dur_ns\": %llu, \"count\": %llu}\n",
                         s.id, s.parent, s.point, s.name.c_str(),
                         static_cast<unsigned long long>(s.startNs),
                         static_cast<unsigned long long>(s.durNs),
                         static_cast<unsigned long long>(s.count));
        }
    }

  private:
    std::vector<Span> spans;
    std::vector<long> stack;
};

/**
 * Times every next() call of the wrapped source. The wrappers of all
 * cores add to one pair of counters without synchronisation: the
 * System steps its cores on one host thread, because this program
 * sets no thread count and run.py starts it with every BOP_* variable
 * removed from the environment.
 */
class TimingTrace : public TraceSource
{
  public:
    TimingTrace(std::unique_ptr<TraceSource> inner_, std::uint64_t &ns_,
                std::uint64_t &calls_)
        : inner(std::move(inner_)), ns(ns_), calls(calls_)
    {
    }

    TraceInstr
    next() override
    {
        const auto t0 = Clock::now();
        TraceInstr instr = inner->next();
        ns += static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count());
        ++calls;
        return instr;
    }

    std::string name() const override { return inner->name(); }
    void serialize(Serializer &s) override { inner->serialize(s); }

  private:
    std::unique_ptr<TraceSource> inner;
    std::uint64_t &ns;
    std::uint64_t &calls;
};

struct Point
{
    std::string mode;
    std::string workload;
    std::string prefetcher;
    int cores = 1;
    std::string page;
    std::uint64_t seed = 0;
    std::uint64_t warmup = 0;
    std::uint64_t instr = 0;
};

SystemConfig
configOf(const Point &p)
{
    // The --serve job-line defaults: paper topology, then the fields.
    SystemConfig cfg;
    if (!parseL2PrefetcherName(p.prefetcher, cfg.l2Prefetcher))
        throw std::invalid_argument("unknown prefetcher " + p.prefetcher);
    cfg.activeCores = p.cores;
    cfg.pageSize = p.page == "4m" ? PageSize::FourMB : PageSize::FourKB;
    cfg.seed = p.seed;
    return cfg;
}

void
printStats(std::ostream &os, const RunStats &s)
{
    os << "{\"cycles\": " << s.cycles
       << ", \"instructions\": " << s.instructions
       << ", \"dl1_accesses\": " << s.dl1Accesses
       << ", \"dl1_misses\": " << s.dl1Misses
       << ", \"l2_accesses\": " << s.l2Accesses
       << ", \"l2_misses\": " << s.l2Misses
       << ", \"l2_prefetched_hits\": " << s.l2PrefetchedHits
       << ", \"l2_pref_issued\": " << s.l2PrefIssued
       << ", \"l2_pref_fills\": " << s.l2PrefFills
       << ", \"l2_late_promotions\": " << s.l2LatePromotions
       << ", \"l2_pref_useless_evicted\": " << s.l2PrefUselessEvicted
       << ", \"l3_accesses\": " << s.l3Accesses
       << ", \"l3_misses\": " << s.l3Misses
       << ", \"l3_channel_stalls\": " << s.l3ChannelStalls
       << ", \"branches\": " << s.branches
       << ", \"branch_mispredicts\": " << s.branchMispredicts
       << ", \"dram_reads\": " << s.dramReads
       << ", \"dram_writes\": " << s.dramWrites
       << ", \"dram_row_hits\": " << s.dramRowHits
       << ", \"dram_row_misses\": " << s.dramRowMisses
       << ", \"bo_learning_phases\": " << s.boLearningPhases
       << ", \"bo_off_phases\": " << s.boPrefetchOffPhases
       << ", \"bo_final_offset\": " << s.boFinalOffset << "}";
}

/** An L2 access of the functional stream: line and hit/miss. */
struct L2Access
{
    LineAddr line;
    bool miss;
};

/**
 * Derive the workload's L2-access and L3-miss line streams by passing
 * the first @p count core-0 instructions through functional DL1, L2
 * and L3 tag arrays (virtual line addresses, no timing).
 */
void
captureStreams(const Point &p, std::uint64_t count,
               std::vector<L2Access> &l2, std::vector<LineAddr> &dram)
{
    const CacheParams geo;
    auto trace = makeWorkload(p.workload, p.seed);
    SetAssocCache dl1("dl1", geo.dl1Bytes, geo.dl1Ways,
                      std::make_unique<LruPolicy>());
    SetAssocCache l2c("l2", geo.l2Bytes, geo.l2Ways,
                      std::make_unique<LruPolicy>());
    SetAssocCache l3c("l3", geo.l3Bytes, geo.l3Ways,
                      std::make_unique<LruPolicy>());
    for (std::uint64_t i = 0; i < count; ++i) {
        const TraceInstr in = trace->next();
        if (in.kind != InstrKind::Load && in.kind != InstrKind::Store)
            continue;
        const LineAddr line = lineOf(in.vaddr);
        if (dl1.access(line, in.kind == InstrKind::Store).hit)
            continue;
        dl1.insert(line, CacheFill{});
        const bool miss = !l2c.access(line, false).hit;
        l2.push_back({line, miss});
        if (!miss)
            continue;
        l2c.insert(line, CacheFill{});
        if (l3c.access(line, false).hit)
            continue;
        l3c.insert(line, CacheFill{});
        dram.push_back(line);
    }
}

/** Replay the L2-access stream into a fresh L2 tag array. */
std::uint64_t
replayL2(const std::vector<L2Access> &stream)
{
    const CacheParams geo;
    SetAssocCache l2c("l2", geo.l2Bytes, geo.l2Ways,
                      std::make_unique<LruPolicy>());
    std::uint64_t misses = 0;
    for (const L2Access &a : stream) {
        if (!l2c.access(a.line, false).hit) {
            l2c.insert(a.line, CacheFill{});
            ++misses;
        }
    }
    return misses;
}

/**
 * Replay the L3-miss stream into one DRAM channel controller: enqueue
 * each read as soon as its queue has room, tick to the controller's
 * own event horizon and drain completions. Returns reads completed.
 */
std::uint64_t
replayDram(const std::vector<LineAddr> &stream)
{
    MemoryController mc(DramTiming{}, 0, 1);
    Cycle now = 0;
    std::uint64_t done = 0;
    auto advance = [&] {
        const Cycle next = mc.nextEventAt(now);
        now = next == neverCycle ? now + 1 : std::max(next, now + 1);
        mc.tick(now);
        if (mc.hasCompletedReads())
            done += mc.popCompleted(now).size();
    };
    for (const LineAddr line : stream) {
        while (mc.readQueueFull(0))
            advance();
        mc.enqueueRead(line, ReqMeta{}, now);
    }
    while (mc.anyPending() || mc.hasCompletedReads())
        advance();
    return done;
}

/**
 * Replay the L2-access stream into a fresh BO prefetcher: every access
 * goes to onAccess, every miss and every issued prefetch comes back as
 * an onFill a fixed latency later. Returns the number of events.
 */
std::uint64_t
replayBo(const std::vector<L2Access> &stream, PageSize page)
{
    BestOffsetPrefetcher bo(page, BoConfig{});
    std::vector<LineAddr> out;
    std::uint64_t events = 0;
    Cycle now = 0;
    for (const L2Access &a : stream) {
        now += 8;
        out.clear();
        bo.onAccess(L2AccessEvent{a.line, a.miss, false, now}, out);
        ++events;
        if (a.miss) {
            bo.onFill(L2FillEvent{a.line, false, now + 100});
            ++events;
        }
        for (const LineAddr pf : out) {
            bo.onFill(L2FillEvent{pf, true, now + 100});
            ++events;
        }
    }
    return events;
}

/** Instructions of the workload stream fed to the layer replays. */
constexpr std::uint64_t replayInstructions = 1000000;

void
runPoint(Tracer &tracer, long idx, const Point &p, std::ostream &out,
         std::vector<RunStats> &results)
{
    const SystemConfig cfg = configOf(p);
    RunStats stats;
    std::ostringstream extra;

    if (p.mode == "stats") {
        System sys(cfg, makeTraces(p.workload, cfg));
        stats = sys.run(p.warmup, p.instr);
    } else {
        const long point = tracer.open("point", idx);
        std::uint64_t traceNs = 0;
        std::uint64_t traceCalls = 0;

        long s = tracer.open("sim.construct", idx);
        std::vector<std::unique_ptr<TraceSource>> wrapped;
        for (auto &t : makeTraces(p.workload, cfg)) {
            wrapped.push_back(std::make_unique<TimingTrace>(
                std::move(t), traceNs, traceCalls));
        }
        System sys(cfg, std::move(wrapped));
        tracer.close(s);

        s = tracer.open("sim.warmup", idx);
        sys.warmup(p.warmup);
        tracer.addChild("trace.next", traceNs, traceCalls);
        tracer.close(s, p.warmup);

        s = tracer.open("harness.ckpt_save", idx);
        const std::vector<std::uint8_t> bytes = sys.saveCheckpointBytes();
        tracer.close(s, bytes.size());

        traceNs = 0;
        traceCalls = 0;
        s = tracer.open("sim.measure", idx);
        stats = sys.measure(p.instr);
        tracer.addChild("trace.next", traceNs, traceCalls);
        tracer.close(s, stats.instructions);

        // The same point with no wrapper: its duration against the
        // traced construct + warmup + measure is the tracing overhead.
        s = tracer.open("untraced.run", idx);
        RunStats plain;
        {
            System ref(cfg, makeTraces(p.workload, cfg));
            ref.warmup(p.warmup);
            plain = ref.measure(p.instr);
        }
        tracer.close(s, plain.instructions);

        System warm(cfg, makeTraces(p.workload, cfg));
        s = tracer.open("harness.ckpt_restore", idx);
        warm.restoreCheckpointBytes(bytes);
        tracer.close(s, bytes.size());
        const RunStats restored = warm.measure(p.instr);

        std::vector<L2Access> l2;
        std::vector<LineAddr> dram;
        captureStreams(p, std::min(replayInstructions, p.warmup + p.instr),
                       l2, dram);
        s = tracer.open("cache.l2_replay", idx);
        replayL2(l2);
        tracer.close(s, l2.size());
        s = tracer.open("dram.replay", idx);
        const std::uint64_t reads = replayDram(dram);
        tracer.close(s, dram.size());
        s = tracer.open("bo.replay", idx);
        const std::uint64_t events = replayBo(l2, cfg.pageSize);
        tracer.close(s, events);
        tracer.close(point);

        extra << ", \"untraced_equal\": "
              << (plain == stats ? "true" : "false")
              << ", \"restore_equal\": "
              << (restored == stats ? "true" : "false")
              << ", \"dram_replay_complete\": "
              << (reads == dram.size() ? "true" : "false")
              << ", \"ckpt_bytes\": " << bytes.size();
    }

    out << "{\"point\": " << idx << ", \"mode\": \"" << p.mode
        << "\", \"workload\": \"" << p.workload << "\", \"prefetcher\": \""
        << p.prefetcher << "\", \"cores\": " << p.cores << ", \"page\": \""
        << p.page << "\", \"seed\": " << p.seed
        << ", \"warmup\": " << p.warmup << ", \"instr\": " << p.instr
        << ", \"stats\": ";
    printStats(out, stats);
    out << extra.str() << "}\n";
    out.flush();
    results.push_back(stats);
}

/** fsync'd ResultJournal appends timed by timeJournal(). */
constexpr int journalAppends = 20;

/** Time journalAppends appends of a real record to a new journal. */
void
timeJournal(Tracer &tracer, const std::string &path, const Point &p,
            const RunStats &stats)
{
    ResultJournal journal;
    journal.open(path, p.warmup, p.instr);
    RunRecord record;
    record.workload = p.workload;
    record.config = configOf(p).describe();
    record.stats = stats;
    for (int i = 0; i < journalAppends; ++i) {
        const long s = tracer.open("harness.journal_append", -1);
        journal.append("perfbench#" + std::to_string(i), record);
        tracer.close(s);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::string spansPath;
    std::string journalPath;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--spans" && i + 1 < argc) {
            spansPath = argv[++i];
        } else if (arg == "--journal" && i + 1 < argc) {
            journalPath = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s --spans FILE [--journal FILE] "
                         "< points\n",
                         argv[0]);
            return 2;
        }
    }
    if (spansPath.empty()) {
        std::fprintf(stderr, "perfbench_layers: --spans is required\n");
        return 2;
    }

    try {
        Tracer tracer;
        std::vector<Point> points;
        std::vector<RunStats> results;
        std::string line;
        while (std::getline(std::cin, line)) {
            std::istringstream is(line);
            Point p;
            if (!(is >> p.mode >> p.workload >> p.prefetcher >> p.cores >>
                  p.page >> p.seed >> p.warmup >> p.instr))
                throw std::invalid_argument("bad design point: " + line);
            runPoint(tracer, static_cast<long>(points.size()), p,
                     std::cout, results);
            points.push_back(p);
        }
        if (!journalPath.empty() && !points.empty())
            timeJournal(tracer, journalPath, points.front(),
                        results.front());

        std::FILE *f = std::fopen(spansPath.c_str(), "w");
        if (!f) {
            std::perror(spansPath.c_str());
            return 1;
        }
        tracer.write(f);
        std::fclose(f);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_layers: %s\n", e.what());
        return 1;
    }
    return 0;
}
