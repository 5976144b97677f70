#include "dram/mem_controller.hh"

#include <algorithm>
#include <cassert>

namespace bop
{

MemoryController::MemoryController(const DramTiming &timing_,
                                   int channel_id, int num_cores)
    : timing(timing_), channelId(channel_id),
      readQueues(static_cast<std::size_t>(num_cores)),
      writeQueues(static_cast<std::size_t>(num_cores)),
      fairness(static_cast<std::size_t>(num_cores), 7)
{
    assert(num_cores >= 1);
}

bool
MemoryController::readQueueFull(CoreId core) const
{
    return readQueues[static_cast<std::size_t>(core)].size() >=
           queueCapacity;
}

bool
MemoryController::writeQueueFull(CoreId core) const
{
    return writeQueues[static_cast<std::size_t>(core)].size() >=
           queueCapacity;
}

bool
MemoryController::readQueueContains(LineAddr line) const
{
    if (pendingReadCount == 0)
        return false;
    for (const auto &q : readQueues) {
        for (const auto &r : q) {
            if (r.line == line)
                return true;
        }
    }
    return false;
}

void
MemoryController::enqueueRead(LineAddr line, const ReqMeta &meta, Cycle now)
{
    assert(!readQueueFull(meta.core));
    // The uncore routed this request here, so this controller's id is
    // the authoritative channel (mapToDram's default fold would record
    // a stale value on >2-channel chips).
    DramCoord coord = mapToDram(lineToAddr(line));
    coord.channel = channelId;
    readQueues[static_cast<std::size_t>(meta.core)].push_back(
        {line, meta, now, coord});
    ++pendingReadCount;
}

void
MemoryController::enqueueWrite(LineAddr line, CoreId core, Cycle now)
{
    assert(!writeQueueFull(core));
    DramCoord coord = mapToDram(lineToAddr(line));
    coord.channel = channelId;
    writeQueues[static_cast<std::size_t>(core)].push_back(
        {line, core, now, coord});
    ++pendingWriteCount;
}

std::size_t
MemoryController::readQueueSize(CoreId core) const
{
    return readQueues[static_cast<std::size_t>(core)].size();
}

std::size_t
MemoryController::writeQueueSize(CoreId core) const
{
    return writeQueues[static_cast<std::size_t>(core)].size();
}

bool
MemoryController::anyPending() const
{
    if (pendingReadCount > 0 || pendingWriteCount > 0)
        return true;
    return !completedReads.empty();
}

CoreId
MemoryController::laggingCore() const
{
    CoreId best = -1;
    for (CoreId c = 0; c < coreCount(); ++c) {
        if (readQueues[static_cast<std::size_t>(c)].empty())
            continue;
        if (best < 0 ||
            fairness.value(static_cast<std::size_t>(c)) <
                fairness.value(static_cast<std::size_t>(best))) {
            best = c;
        }
    }
    return best;
}

bool
MemoryController::servedHasRowHit() const
{
    for (const auto &r : readQueues[static_cast<std::size_t>(served)]) {
        if (timing.isRowHit(r.coord))
            return true;
    }
    return false;
}

bool
MemoryController::issueReadFrom(CoreId core, BusCycle bc)
{
    auto &q = readQueues[static_cast<std::size_t>(core)];
    if (q.empty())
        return false;

    // FR-FCFS: oldest row-hit first, else oldest request.
    auto pick = q.end();
    for (auto it = q.begin(); it != q.end(); ++it) {
        if (timing.isRowHit(it->coord)) {
            pick = it;
            break;
        }
    }
    if (pick == q.end())
        pick = q.begin();

    const DramAccessTiming t = timing.apply(pick->coord, false, bc);
    ++chanStats.reads;
    if (t.rowResult == RowResult::Hit)
        ++chanStats.rowHits;
    else
        ++chanStats.rowMisses;

    CompletedRead done;
    done.line = pick->line;
    done.meta = pick->meta;
    done.finishCycle = t.dataEnd * timing.params().busRatio;
    minFinishAt = std::min(minFinishAt, done.finishCycle);
    completedReads.push_back(done);

    fairness.increment(static_cast<std::size_t>(core));
    q.erase(pick);
    --pendingReadCount;
    return true;
}

bool
MemoryController::issueWrite(BusCycle bc)
{
    // Out-of-order write selection: any row-hit write first, preferring
    // the fullest queue; otherwise the oldest write of the fullest queue.
    CoreId best_core = -1;
    std::deque<WriteReq>::iterator best_it;
    bool best_is_hit = false;
    std::size_t best_len = 0;

    for (CoreId c = 0; c < coreCount(); ++c) {
        auto &q = writeQueues[static_cast<std::size_t>(c)];
        if (q.empty())
            continue;
        for (auto it = q.begin(); it != q.end(); ++it) {
            const bool hit = timing.isRowHit(it->coord);
            if (best_core < 0 || (hit && !best_is_hit) ||
                (hit == best_is_hit && q.size() > best_len)) {
                best_core = c;
                best_it = it;
                best_is_hit = hit;
                best_len = q.size();
            }
            if (hit)
                break; // oldest row hit in this queue is enough
        }
    }
    if (best_core < 0)
        return false;

    const DramAccessTiming t = timing.apply(best_it->coord, true, bc);
    ++chanStats.writes;
    if (t.rowResult == RowResult::Hit)
        ++chanStats.rowHits;
    else
        ++chanStats.rowMisses;
    writeQueues[static_cast<std::size_t>(best_core)].erase(best_it);
    --pendingWriteCount;
    return true;
}

bool
MemoryController::scheduleStep(BusCycle bc)
{
    // Enter write-drain mode when a write queue fills up.
    if (writeDrainRemaining == 0) {
        for (CoreId c = 0; c < coreCount(); ++c) {
            if (writeQueueFull(c)) {
                writeDrainRemaining = writeBatchSize;
                ++chanStats.writeBatches;
                break;
            }
        }
    }

    if (writeDrainRemaining > 0) {
        if (issueWrite(bc)) {
            --writeDrainRemaining;
            return true;
        }
        writeDrainRemaining = 0; // queues drained early
    }

    const CoreId lagging = laggingCore();
    if (lagging < 0) {
        // No reads pending: opportunistically drain a write so idle
        // phases do not strand dirty data and stall L3 evictions.
        return issueWrite(bc);
    }

    // Urgent mode preempts steady mode (Sec. 5.3).
    if (!l3FillFull && lagging != served &&
        fairness.value(static_cast<std::size_t>(served)) >
            fairness.value(static_cast<std::size_t>(lagging)) +
                urgentThreshold) {
        ++chanStats.urgentIssues;
        return issueReadFrom(lagging, bc);
    }

    // Steady mode: re-pick the served core only when it has no pending
    // row-buffer-hitting read (Sec. 5.3); the proportional counters
    // then pick the least-served core.
    if (readQueues[static_cast<std::size_t>(served)].empty() ||
        !servedHasRowHit())
        served = lagging;
    return issueReadFrom(served, bc);
}

void
MemoryController::tick(Cycle now)
{
    const unsigned ratio = timing.params().busRatio;
    if (now == lastTicked + 1) {
        if (++busPhase >= ratio) {
            busPhase = 0;
            ++busCycleNum;
        }
    } else {
        busPhase = static_cast<unsigned>(now % ratio);
        busCycleNum = now / ratio;
    }
    lastTicked = now;
    if (busPhase != 0)
        return;
    const BusCycle bc = busCycleNum;

    // Idle gate: with nothing queued and no drain batch open,
    // scheduleStep cannot issue or change state — skip it.
    if (pendingReadCount == 0 && pendingWriteCount == 0 &&
        writeDrainRemaining == 0) {
        return;
    }

    // Issue at most one request per bus cycle, and never run the
    // command stream more than a couple of bursts ahead of the data
    // bus: a real controller's scheduling window stays adaptive, and
    // locking decisions arbitrarily far into the future would defeat
    // FR-FCFS and the fairness counters.
    if (timing.busFreeAt() <= bc + 2 * timing.params().tBURST)
        scheduleStep(bc);
}

Cycle
MemoryController::nextEventAt(Cycle now) const
{
    const Cycle next = now + 1;
    Cycle ev = neverCycle;

    // Finished reads are handed back when the hierarchy polls at
    // finishCycle (drainDramCompletions runs every simulated step).
    if (minFinishAt != neverCycle)
        ev = std::max(next, minFinishAt);

    // Scheduling decisions happen on bus edges while work is pending —
    // but tick() also refuses to run the command stream more than
    // 2*tBURST ahead of the data bus, so while that throttle holds the
    // next actionable edge is the one where the window reopens.
    if (pendingReadCount > 0 || pendingWriteCount > 0 ||
        writeDrainRemaining > 0) {
        const unsigned ratio = timing.params().busRatio;
        const BusCycle window = 2 * timing.params().tBURST;
        // First edge strictly after now. tick() keeps busCycleNum at
        // lastTicked / ratio, which spares the division in the usual
        // query: the hierarchy's, right after its tick.
        BusCycle bc = (now == lastTicked ? busCycleNum : now / ratio) + 1;
        if (timing.busFreeAt() > window)
            bc = std::max(bc, timing.busFreeAt() - window);
        ev = std::min(ev, bc * ratio);
    }
    return ev;
}

std::vector<CompletedRead>
MemoryController::popCompleted(Cycle now)
{
    std::vector<CompletedRead> out;
    if (minFinishAt > now)
        return out;
    minFinishAt = neverCycle;
    auto it = completedReads.begin();
    while (it != completedReads.end()) {
        if (it->finishCycle <= now) {
            out.push_back(*it);
            it = completedReads.erase(it);
        } else {
            minFinishAt = std::min(minFinishAt, it->finishCycle);
            ++it;
        }
    }
    return out;
}

} // namespace bop
