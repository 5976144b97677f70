#include "core/best_offset.hh"

#include <algorithm>
#include <cassert>

namespace bop
{

BoConfig
dpc2BoConfig()
{
    BoConfig cfg;
    cfg.rrBanks = 2;
    cfg.badScore = 10;
    cfg.delayQueueEntries = 15;
    cfg.delayCycles = 60;
    return cfg;
}

BestOffsetPrefetcher::BestOffsetPrefetcher(PageSize page_size, BoConfig cfg_)
    : L2Prefetcher(page_size),
      cfg(cfg_),
      rr(cfg_.rrEntries, cfg_.rrTagBits, cfg_.rrBanks),
      rrAny(cfg_.rrEntries, cfg_.rrTagBits),
      dynBadScore(cfg_.badScore)
{
    if (cfg.includeNegative)
        offsets = makeSignedOffsetList(cfg.maxOffset);
    else
        offsets = makeOffsetList(cfg.maxOffset);
    assert(!offsets.empty());
    scores.assign(offsets.size(), 0);
    bestOffsetInPhase = offsets.front();
}

void
BestOffsetPrefetcher::drainDelayQueue(Cycle now)
{
    while (!delayQueue.empty() && delayQueue.front().due <= now) {
        rr.insert(delayQueue.front().line);
        delayQueue.pop_front();
    }
}

void
BestOffsetPrefetcher::endPhase()
{
    ++phaseCount;
    const int scale = scoreScale();
    lastBestScore = bestScoreInPhase;
    lastBestOffset = bestOffsetInPhase;

    // Degree-2 extension: remember the runner-up offset of this phase.
    if (cfg.degree >= 2) {
        int second_score = -1;
        secondOffset = 0;
        for (std::size_t i = 0; i < offsets.size(); ++i) {
            if (offsets[i] == bestOffsetInPhase)
                continue;
            if (scores[i] > second_score) {
                second_score = scores[i];
                secondOffset = offsets[i];
            }
        }
        if (second_score <= dynBadScore * scale)
            secondOffset = 0;
    }

    // Adaptive-BADSCORE extension (Sec. 7 future work): phases that
    // produced mostly useless prefetches raise the threshold fast;
    // healthy phases relax it slowly.
    if (cfg.adaptiveBadScore) {
        if (prefetchOn && uselessInPhase > usefulInPhase) {
            dynBadScore = std::min(cfg.badScoreMax,
                                   std::max(dynBadScore * 2,
                                            dynBadScore + 1));
        } else {
            dynBadScore = std::max(cfg.badScoreMin, dynBadScore - 1);
        }
        usefulInPhase = 0;
        uselessInPhase = 0;
    }

    // Throttling: a best score not greater than BADSCORE means offset
    // prefetching is failing — turn prefetch off (learning continues).
    prefetchOn = bestScoreInPhase > dynBadScore * scale;
    if (prefetchOn)
        prefetchOffset = bestOffsetInPhase;
    else
        ++offPhaseCount;

    // Start a new phase.
    for (auto &s : scores)
        s = 0;
    round = 0;
    testIndex = 0;
    scoreMaxHit = false;
    bestScoreInPhase = 0;
    bestOffsetInPhase = offsets.front();
}

void
BestOffsetPrefetcher::learnStep(LineAddr x)
{
    const int d = offsets[testIndex];
    const std::int64_t candidate =
        static_cast<std::int64_t>(x) - static_cast<std::int64_t>(d);

    int increment = 0;
    if (candidate >= 0) {
        const LineAddr cand = static_cast<LineAddr>(candidate);
        if (cfg.coverageWeight > 0) {
            // Hybrid scoring (future work): full credit (2 half-points)
            // for a timely hit, partial credit for coverage-only — the
            // base address was accessed recently, so a prefetch with
            // offset d would have covered this access, perhaps late.
            if (rr.contains(cand))
                increment = 2;
            else if (rrAny.contains(cand))
                increment = cfg.coverageWeight;
        } else if (rr.contains(cand)) {
            increment = 1;
        }
    }

    if (increment > 0) {
        const int s = (scores[testIndex] += increment);
        // Incremental best tracking (paper footnote 3): strictly-greater
        // comparison means the first offset to reach a score wins ties.
        if (s > bestScoreInPhase) {
            bestScoreInPhase = s;
            bestOffsetInPhase = d;
        }
        if (s >= cfg.scoreMax * scoreScale())
            scoreMaxHit = true;
    }

    if (++testIndex >= offsets.size()) {
        // End of a round: each offset has been tested once.
        testIndex = 0;
        ++round;
        if (scoreMaxHit || round >= cfg.roundMax)
            endPhase();
    }
}

void
BestOffsetPrefetcher::onAccess(const L2AccessEvent &ev,
                               std::vector<LineAddr> &out)
{
    if (!ev.miss && !ev.prefetchedHit)
        return;

    if (ev.prefetchedHit)
        ++usefulInPhase;

    drainDelayQueue(ev.cycle);
    learnStep(ev.line);

    // The coverage table records every eligible access (after the
    // learning step, so an access never scores against itself).
    if (cfg.coverageWeight > 0)
        rrAny.insert(ev.line);

    // The delay queue takes this access too; `delayCycles` later it
    // becomes timeliness evidence in the RR table.
    if (cfg.delayQueueEntries > 0) {
        if (delayQueue.size() >= cfg.delayQueueEntries)
            delayQueue.pop_front();
        delayQueue.push_back({ev.line, ev.cycle + cfg.delayCycles});
    }

    if (!prefetchOn)
        return;

    const std::int64_t target =
        static_cast<std::int64_t>(ev.line) + prefetchOffset;
    if (target >= 0 &&
        inSamePage(ev.line, static_cast<LineAddr>(target))) {
        out.push_back(static_cast<LineAddr>(target));
    }

    if (cfg.degree >= 2 && secondOffset != 0) {
        const std::int64_t t2 =
            static_cast<std::int64_t>(ev.line) + secondOffset;
        if (t2 >= 0 && inSamePage(ev.line, static_cast<LineAddr>(t2)))
            out.push_back(static_cast<LineAddr>(t2));
    }
}

void
BestOffsetPrefetcher::onFill(const L2FillEvent &ev)
{
    if (prefetchOn) {
        // Record the base address Y-D of completed prefetches, using the
        // *current* offset D (paper Sec. 4.1: the base address is
        // obtained by subtracting the current prefetch offset from the
        // address of the prefetched line inserted into the L2).
        if (!ev.wasPrefetch)
            return;
        const std::int64_t base =
            static_cast<std::int64_t>(ev.line) - prefetchOffset;
        if (base >= 0 &&
            inSamePage(ev.line, static_cast<LineAddr>(base))) {
            rr.insert(static_cast<LineAddr>(base));
        }
    } else if (cfg.delayQueueEntries == 0) {
        // Prefetch off: record every fetched line Y (i.e. D = 0), so
        // learning keeps working and prefetch can be turned on again.
        // A delay queue carries that signal instead.
        rr.insert(ev.line);
    }
}

void
BestOffsetPrefetcher::onEvict(const L2EvictEvent &ev)
{
    if (ev.victimWasPrefetch)
        ++uselessInPhase;
}

void
BestOffsetPrefetcher::onLatePromotion(LineAddr line, Cycle now)
{
    (void)line;
    (void)now;
    ++usefulInPhase;
}

} // namespace bop
