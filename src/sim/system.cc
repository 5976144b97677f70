#include "sim/system.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "common/fault.hh"

namespace bop
{

namespace
{

/** BOP_DISABLE_FASTFORWARD set to anything but "" or "0" forces the
 *  per-cycle reference loop (CI's exactness gate). */
bool
fastForwardDisabledByEnv()
{
    const char *v = std::getenv("BOP_DISABLE_FASTFORWARD");
    return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

} // namespace

RunStats
deltaStats(const RunStats &end, const RunStats &begin)
{
    RunStats d = end;
    d.cycles = end.cycles - begin.cycles;
    d.instructions = end.instructions - begin.instructions;
    d.dl1Accesses = end.dl1Accesses - begin.dl1Accesses;
    d.dl1Misses = end.dl1Misses - begin.dl1Misses;
    d.dl1PrefIssued = end.dl1PrefIssued - begin.dl1PrefIssued;
    d.dl1PrefDropTlb = end.dl1PrefDropTlb - begin.dl1PrefDropTlb;
    d.l2Accesses = end.l2Accesses - begin.l2Accesses;
    d.l2Misses = end.l2Misses - begin.l2Misses;
    d.l2PrefetchedHits = end.l2PrefetchedHits - begin.l2PrefetchedHits;
    d.l2PrefIssued = end.l2PrefIssued - begin.l2PrefIssued;
    d.l2PrefDropped = end.l2PrefDropped - begin.l2PrefDropped;
    d.l2PrefFills = end.l2PrefFills - begin.l2PrefFills;
    d.l2LatePromotions = end.l2LatePromotions - begin.l2LatePromotions;
    d.l2PrefUselessEvicted =
        end.l2PrefUselessEvicted - begin.l2PrefUselessEvicted;
    d.l3Accesses = end.l3Accesses - begin.l3Accesses;
    d.l3Misses = end.l3Misses - begin.l3Misses;
    d.l3ChannelStalls = end.l3ChannelStalls - begin.l3ChannelStalls;
    d.dtlb1Misses = end.dtlb1Misses - begin.dtlb1Misses;
    d.tlb2Misses = end.tlb2Misses - begin.tlb2Misses;
    d.branches = end.branches - begin.branches;
    d.branchMispredicts = end.branchMispredicts - begin.branchMispredicts;
    d.dramReads = end.dramReads - begin.dramReads;
    d.dramWrites = end.dramWrites - begin.dramWrites;
    d.dramRowHits = end.dramRowHits - begin.dramRowHits;
    d.dramRowMisses = end.dramRowMisses - begin.dramRowMisses;
    // boLearningPhases etc. are end-of-run state: keep end's values.
    return d;
}

System::System(const SystemConfig &cfg_,
               std::vector<std::unique_ptr<TraceSource>> traces_)
    : cfg(cfg_.resolved()), traces(std::move(traces_)), hier(cfg),
      fastForward(cfg.fastForward && !fastForwardDisabledByEnv())
{
    if (static_cast<int>(traces.size()) != cfg.activeCores) {
        throw std::invalid_argument(
            "System: need exactly one trace per active core");
    }
    for (int c = 0; c < cfg.activeCores; ++c) {
        cores.push_back(std::make_unique<CoreModel>(
            c, cfg.core, *traces[static_cast<std::size_t>(c)], hier));
        hier.attachCore(c, cores.back().get());
    }
    // Every component starts with its staleness flag set, so these
    // placeholders are refreshed before they are ever consulted.
    coreHorizon.assign(cores.size(), 0);
}

Cycle
System::nextEventCycle()
{
    // Refresh every stale cache entry — step() bases its tick-or-skip
    // decisions on these values, so none may be left stale here.
    for (std::size_t c = 0; c < cores.size(); ++c) {
        if (cores[c]->horizonStale()) {
            coreHorizon[c] = cores[c]->nextEventAt(now);
            cores[c]->clearHorizonStale();
        }
    }
    if (hier.horizonStale()) {
        hierHorizon = hier.nextEventAt(now);
        hier.clearHorizonStale();
    }

    Cycle ev = hierHorizon;
    for (const Cycle h : coreHorizon)
        ev = std::min(ev, h);
    const Cycle next = now + 1;
    if (ev <= next)
        return next;
    // A horizon of neverCycle means no component has any future work —
    // a genuine deadlock. Cap the jump just past the watchdog window so
    // the deadlock trap fires with its diagnostic instead of the clock
    // leaping to infinity.
    return std::min(ev, now + watchdogCycles + 1);
}

void
System::step()
{
    if (!fastForward) {
        // Reference semantics: tick everything, every cycle.
        ++now;
        for (auto &core : cores)
            core->tick(now);
        hier.tick(now);
        return;
    }

    now = nextEventCycle();
    // Tick only the components whose horizon is due. Skipped ticks are
    // exactly the ones the horizon contract proves are no-ops; ticking
    // anyway would be correct but wasted (the reference loop does, and
    // the equivalence tests pin the two modes against each other).
    for (std::size_t c = 0; c < cores.size(); ++c) {
        if (coreHorizon[c] <= now)
            cores[c]->tick(now);
    }
    if (hierHorizon <= now)
        hier.tick(now);
}

void
System::runUntilRetired(std::uint64_t target)
{
    // Watchdog over every active core: a wedged core is a simulator
    // bug wherever it sits, and blaming core 0 for core 3's stall
    // buries the diagnosis. (Thrasher cores retire continuously, so
    // per-core progress is the cheap invariant to watch.)
    const std::size_t n = cores.size();
    std::vector<std::uint64_t> last_retired(n);
    std::vector<Cycle> last_progress(n, now);
    for (std::size_t c = 0; c < n; ++c)
        last_retired[c] = cores[c]->retired();

    const bool deadlineArmed =
        jobDeadline != std::chrono::steady_clock::time_point{};
    std::uint64_t deadlineChecks = 0;
    while (cores[0]->retired() < target) {
        step();
        // The deadline check is time-based, so sample the clock only
        // every 256 steps — cheap enough to leave armed on every farm
        // job without skewing throughput numbers.
        if (deadlineArmed && (++deadlineChecks & 255) == 0 &&
            std::chrono::steady_clock::now() >= jobDeadline) {
            std::ostringstream oss;
            oss << "System: job exceeded its " << jobDeadlineSeconds
                << "s wall-clock deadline at cycle " << now
                << " (core 0 retired " << cores[0]->retired() << "/"
                << target << ")";
            throw JobTimeout(oss.str());
        }
        for (std::size_t c = 0; c < n; ++c) {
            const std::uint64_t retired = cores[c]->retired();
            if (retired != last_retired[c]) {
                last_retired[c] = retired;
                last_progress[c] = now;
            } else if (now - last_progress[c] > watchdogCycles) {
                std::ostringstream oss;
                oss << "System: core " << c << " made no progress for "
                    << "1M cycles at cycle " << now << " (retired "
                    << retired;
                if (c == 0)
                    oss << ", target " << target;
                oss << ") — deadlock?";
                throw std::runtime_error(oss.str());
            }
        }
    }
}

void
System::setJobDeadline(double seconds)
{
    jobDeadlineSeconds = seconds;
    jobDeadline =
        seconds > 0.0
            ? std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(seconds))
            : std::chrono::steady_clock::time_point{};
}

RunStats
System::run(std::uint64_t warmup_instr, std::uint64_t measure_instr)
{
    warmup(warmup_instr);
    return measure(measure_instr);
}

void
System::warmup(std::uint64_t warmup_instr)
{
    runUntilRetired(cores[0]->retired() + warmup_instr);
}

RunStats
System::measure(std::uint64_t measure_instr)
{
    RunStats begin = hier.collectStats();
    begin.branches = cores[0]->branchCount();
    begin.branchMispredicts = cores[0]->mispredictCount();
    const Cycle start_cycle = now;
    const std::uint64_t start_instr = cores[0]->retired();

    runUntilRetired(start_instr + measure_instr);

    RunStats end = hier.collectStats();
    end.branches = cores[0]->branchCount();
    end.branchMispredicts = cores[0]->mispredictCount();

    RunStats d = deltaStats(end, begin);
    d.cycles = now - start_cycle;
    d.instructions = cores[0]->retired() - start_instr;
    return d;
}

} // namespace bop
