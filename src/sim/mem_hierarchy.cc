#include "sim/mem_hierarchy.hh"

#include <algorithm>
#include <bit>
#include <cassert>

#include "cache/drrip.hh"
#include "cache/policy_5p.hh"
#include "core/best_offset.hh"
#include "core/offset_list.hh"
#include "prefetch/fdp.hh"
#include "prefetch/fixed_offset.hh"
#include "prefetch/ghb.hh"
#include "prefetch/sandbox.hh"
#include "prefetch/stream.hh"
#include "prefetch/stream_buffer.hh"

namespace bop
{

std::unique_ptr<ReplacementPolicy>
makeL3Policy(const SystemConfig &cfg)
{
    switch (cfg.l3Policy) {
      case L3PolicyKind::P5:
        return std::make_unique<Policy5P>(cfg.seed ^ 0x5105,
                                          cfg.coreCount());
      case L3PolicyKind::Lru:
        return std::make_unique<LruPolicy>();
      case L3PolicyKind::Drrip:
        return std::make_unique<DrripPolicy>(cfg.seed ^ 0xd661);
    }
    return std::make_unique<LruPolicy>();
}

std::unique_ptr<L2Prefetcher>
makeL2Prefetcher(const SystemConfig &cfg)
{
    switch (cfg.l2Prefetcher) {
      case L2PrefetcherKind::None:
        return std::make_unique<NullPrefetcher>(cfg.pageSize);
      case L2PrefetcherKind::NextLine:
        return std::make_unique<NextLinePrefetcher>(cfg.pageSize);
      case L2PrefetcherKind::FixedOffset:
        return std::make_unique<FixedOffsetPrefetcher>(cfg.pageSize,
                                                       cfg.fixedOffset);
      case L2PrefetcherKind::BestOffset:
        return std::make_unique<BestOffsetPrefetcher>(cfg.pageSize,
                                                      cfg.bo);
      case L2PrefetcherKind::Sandbox:
        return std::make_unique<SandboxPrefetcher>(
            cfg.pageSize, makeOffsetList(cfg.bo.maxOffset));
      case L2PrefetcherKind::Stream:
        return std::make_unique<StreamPrefetcher>(cfg.pageSize);
      case L2PrefetcherKind::Fdp:
        return std::make_unique<FdpPrefetcher>(cfg.pageSize);
      case L2PrefetcherKind::Acdc:
        return std::make_unique<GhbAcdcPrefetcher>(cfg.pageSize);
      case L2PrefetcherKind::StreamBuffer:
        return std::make_unique<StreamBufferPrefetcher>(cfg.pageSize);
      case L2PrefetcherKind::BestOffsetDpc2:
        return std::make_unique<BestOffsetPrefetcher>(cfg.pageSize,
                                                      dpc2BoConfig());
    }
    return std::make_unique<NullPrefetcher>(cfg.pageSize);
}

MemHierarchy::CoreSide::CoreSide(const SystemConfig &cfg, CoreId id_)
    : id(id_),
      dl1("dl1." + std::to_string(id), cfg.caches.dl1Bytes,
          cfg.caches.dl1Ways, std::make_unique<LruPolicy>()),
      l2("l2." + std::to_string(id), cfg.caches.l2Bytes,
         cfg.caches.l2Ways, std::make_unique<LruPolicy>()),
      mshr(cfg.caches.dl1Mshrs),
      l2Fill("l2fq." + std::to_string(id), cfg.caches.l2FillQueue),
      prefetchQueue(cfg.caches.prefetchQueue),
      vmem(cfg.pageSize, static_cast<std::uint64_t>(id), cfg.seed)
{
    // All reported numbers are for core 0 (Sec. 5.1). The prefetcher
    // under test runs on core 0 only; the other active cores keep the
    // fixed baseline prefetchers (next-line + DL1 stride), so that a
    // configuration change isolates core 0's prefetcher instead of
    // also making the cache-thrashing micro-benchmarks fetch faster.
    if (id == 0) {
        l2pf = makeL2Prefetcher(cfg);
        if (cfg.dl1StridePrefetcher)
            stride.emplace();
    } else {
        l2pf = std::make_unique<NextLinePrefetcher>(cfg.pageSize);
        stride.emplace();
    }
}

MemHierarchy::MemHierarchy(const SystemConfig &cfg_)
    : cfg(cfg_.resolved()),
      l3Cache("l3", cfg.caches.l3Bytes, cfg.caches.l3Ways,
              makeL3Policy(cfg)),
      // The fill queue bounds all in-flight DRAM reads (every queued
      // read holds a live entry until its data drains), so it must
      // grow with the channel count or it, not the channels, caps
      // memory-level parallelism. The paper's 2-channel chip keeps
      // the Table 1 capacity exactly.
      l3Fill("l3fq", cfg.caches.l3FillQueue * channelLanes()),
      toL3(static_cast<std::size_t>(cfg.numChannels)),
      cores(static_cast<std::size_t>(cfg.numCores), nullptr),
      chanStalled(static_cast<std::size_t>(cfg.numChannels), 0),
      toL3Blocked(static_cast<std::size_t>(cfg.numChannels))
{
    for (int c = 0; c < cfg.activeCores; ++c)
        sides.push_back(std::make_unique<CoreSide>(cfg, c));
    for (int ch = 0; ch < cfg.numChannels; ++ch) {
        mcs.push_back(std::make_unique<MemoryController>(cfg.dram, ch,
                                                         cfg.numCores));
    }

    if (cfg.prewarmL3) {
        // Occupy every L3 way with a clean placeholder line from an
        // address region no workload touches (top of the physical
        // space), attributed round-robin across the active cores so
        // the core-aware policies start from a neutral state.
        const std::size_t sets = l3Cache.numSets();
        const unsigned ways = l3Cache.numWays();
        const unsigned set_bits =
            static_cast<unsigned>(std::countr_zero(sets));
        for (std::size_t set = 0; set < sets; ++set) {
            for (unsigned w = 0; w < ways; ++w) {
                const LineAddr junk =
                    (1ull << (VirtualMemory::physBits - lineShift)) +
                    (static_cast<LineAddr>(w + 1) << set_bits) + set;
                CacheFill fill;
                fill.core = static_cast<CoreId>(w) % cfg.activeCores;
                fill.demand = true;
                l3Cache.insert(junk, fill);
            }
        }
    }
}

void
MemHierarchy::attachCore(CoreId core, CoreModel *model)
{
    cores.at(static_cast<std::size_t>(core)) = model;
}

int
MemHierarchy::channelOf(LineAddr line) const
{
    return channelOfLine(line, cfg.numChannels);
}

// ---------------------------------------------------------------------------
// Core-side entry points
// ---------------------------------------------------------------------------

LoadOutcome
MemHierarchy::coreLoad(CoreId core, Addr vaddr, Addr pc,
                       std::uint32_t rob_tag, Cycle now)
{
    horizonStaleFlag = true;
    CoreSide &cs = side(core);
    const LineAddr line = lineOf(cs.vmem.translate(vaddr));

    // Structural check first so a Retry has no side effects. Only a
    // full MSHR file can refuse, so test that before the tag probe and
    // the MSHR scan.
    if (cs.mshr.full() && !cs.dl1.probe(line) && !cs.mshr.find(line))
        return {LoadOutcome::Kind::Retry, 0};

    std::uint64_t dummy1 = 0, dummy2 = 0;
    const bool c0 = core == 0;
    const unsigned tlb_pen = cs.tlb.demandAccess(
        cs.vmem.vpn(vaddr), c0 ? stats.dtlb1Misses : dummy1,
        c0 ? stats.tlb2Misses : dummy2);

    if (c0)
        ++stats.dl1Accesses;

    const CacheAccessResult res = cs.dl1.access(line, false, true);
    const Cycle data_at = now + tlb_pen + cfg.caches.dl1Latency;

    LoadOutcome out;
    if (res.hit) {
        out = {LoadOutcome::Kind::Hit, data_at};
    } else {
        if (c0)
            ++stats.dl1Misses;
        if (MshrEntry *m = cs.mshr.find(line)) {
            m->waiters.push_back(rob_tag);
            m->prefetchOnly = false;
            out = {LoadOutcome::Kind::Pending, 0};
        } else {
            const std::uint32_t id = cs.mshr.allocate(line, false, now);
            MshrEntry *fresh = cs.mshr.find(line);
            fresh->waiters.push_back(rob_tag);

            ReqMeta meta;
            meta.core = core;
            meta.type = ReqType::DemandRead;
            meta.needL1 = true;
            meta.mshrId = id;
            meta.birth = now;
            cs.toL2.push_back({line, meta, data_at});
            out = {LoadOutcome::Kind::Pending, 0};
        }
    }

    if ((!res.hit || res.prefetchedHit) && cs.stride) {
        if (auto target = cs.stride->onAccess(pc, vaddr))
            issueL1Prefetch(cs, *target, now);
    }
    return out;
}

StoreOutcome
MemHierarchy::coreStore(CoreId core, Addr vaddr, Addr pc, Cycle now)
{
    horizonStaleFlag = true;
    CoreSide &cs = side(core);
    const LineAddr line = lineOf(cs.vmem.translate(vaddr));

    if (cs.mshr.full() && !cs.dl1.probe(line) && !cs.mshr.find(line))
        return {false, false};

    std::uint64_t dummy1 = 0, dummy2 = 0;
    const bool c0 = core == 0;
    const unsigned tlb_pen = cs.tlb.demandAccess(
        cs.vmem.vpn(vaddr), c0 ? stats.dtlb1Misses : dummy1,
        c0 ? stats.tlb2Misses : dummy2);

    if (c0)
        ++stats.dl1Accesses;

    const CacheAccessResult res = cs.dl1.access(line, true, true);

    StoreOutcome out;
    if (res.hit) {
        out = {true, true};
    } else {
        if (c0)
            ++stats.dl1Misses;
        if (MshrEntry *m = cs.mshr.find(line)) {
            m->prefetchOnly = false;
            m->storeIntent = true;
            ++m->storeWaiters;
        } else {
            const std::uint32_t id = cs.mshr.allocate(line, false, now);
            MshrEntry *fresh = cs.mshr.find(line);
            fresh->storeIntent = true;
            fresh->storeWaiters = 1;

            ReqMeta meta;
            meta.core = core;
            meta.type = ReqType::DemandRead; // write-allocate fetch
            meta.needL1 = true;
            meta.mshrId = id;
            meta.birth = now;
            cs.toL2.push_back(
                {line, meta, now + tlb_pen + cfg.caches.dl1Latency});
        }
        out = {true, false};
    }

    if ((!res.hit || res.prefetchedHit) && cs.stride) {
        if (auto target = cs.stride->onAccess(pc, vaddr))
            issueL1Prefetch(cs, *target, now);
    }
    return out;
}

void
MemHierarchy::retireMemOp(CoreId core, Addr pc, Addr vaddr)
{
    CoreSide &cs = side(core);
    if (cs.stride)
        cs.stride->onRetire(pc, vaddr);
}

void
MemHierarchy::issueL1Prefetch(CoreSide &cs, Addr vaddr, Cycle now)
{
    const bool c0 = cs.id == 0;

    // Sec. 5.5: the prefetch address goes through the TLB2; a miss
    // drops the request (no TLB prefetching).
    if (!cs.tlb.prefetchProbe(cs.vmem.vpn(vaddr))) {
        if (c0)
            ++stats.dl1PrefDropTlb;
        return;
    }
    const LineAddr line = lineOf(cs.vmem.translate(vaddr));
    if (cs.dl1.probe(line) || cs.mshr.find(line) || cs.mshr.full())
        return;

    const std::uint32_t id = cs.mshr.allocate(line, true, now);
    ReqMeta meta;
    meta.core = cs.id;
    meta.type = ReqType::L1Prefetch;
    meta.needL1 = true;
    meta.l1PrefetchBit = true;
    meta.mshrId = id;
    meta.birth = now;
    cs.toL2.push_back({line, meta, now + cfg.caches.dl1Latency});
    if (c0)
        ++stats.dl1PrefIssued;
}

// ---------------------------------------------------------------------------
// L2 stage
// ---------------------------------------------------------------------------

void
MemHierarchy::triggerL2Prefetcher(CoreSide &cs, const L2AccessEvent &ev)
{
    const bool c0 = cs.id == 0;
    prefetchScratch.clear();
    cs.l2pf->onAccess(ev, prefetchScratch);

    for (const LineAddr target : prefetchScratch) {
        // Degree-N prefetchers (SBP) check the L2 tags before issuing.
        if (cs.l2pf->requiresTagCheck() && cs.l2.probe(target)) {
            if (c0)
                ++stats.l2PrefDropped;
            continue;
        }
        // Redundant-request removal: the fill queues, prefetch queue
        // and memory-controller read queues are searched (Sec. 6.3).
        if (cs.l2Fill.find(target) || cs.prefetchQueue.contains(target) ||
            controller(channelOf(target)).readQueueContains(target)) {
            if (c0)
                ++stats.l2PrefDropped;
            continue;
        }

        ReqMeta meta;
        meta.core = cs.id;
        meta.type = ReqType::L2Prefetch;
        meta.needL2 = true;
        meta.wasL2Prefetch = true;
        meta.prefetchOffset = cs.l2pf->currentOffset();
        meta.birth = ev.cycle;

        const bool cancelled =
            cs.prefetchQueue.insert({target, meta, ev.cycle + 1});
        if (c0) {
            ++stats.l2PrefIssued;
            if (cancelled)
                ++stats.l2PrefDropped;
        }
    }
}

void
MemHierarchy::processToL2(CoreSide &cs, Cycle now)
{
    const bool c0 = cs.id == 0;
    for (unsigned n = 0; n < l2ReqsPerCycle && !cs.toL2.empty(); ++n) {
        PendingReq &req = cs.toL2.front();
        if (req.readyAt > now)
            break;

        // Fill-queue CAM: an in-flight block absorbs this request.
        if (FillQueueEntry *e = cs.l2Fill.find(req.line)) {
            if (e->isPrefetch) {
                // Late-prefetch promotion (Sec. 5.4).
                e->isPrefetch = false;
                e->meta.needL1 = req.meta.needL1;
                e->meta.mshrId = req.meta.mshrId;
                e->meta.l1PrefetchBit = req.meta.type == ReqType::L1Prefetch;
                if (e->meta.wasL2Prefetch)
                    cs.l2pf->onLatePromotion(req.line, now);
                if (c0)
                    ++stats.l2LatePromotions;
            }
            // A demand entry for the same line cannot carry two MSHRs;
            // the DL1 MSHR coalescing prevents that case entirely.
            cs.toL2.pop_front();
            continue;
        }

        const CacheAccessResult res = cs.l2.access(req.line, false, true);
        if (c0)
            ++stats.l2Accesses;

        if (res.hit) {
            if (res.prefetchedHit && c0)
                ++stats.l2PrefetchedHits;
            cs.dl1Due.push_back(
                {req.line, req.meta, now + cfg.caches.l2Latency});
        } else {
            if (c0)
                ++stats.l2Misses;
            if (!cs.l2Fill.canAllocateWaiting())
                break; // backpressure: miss cannot issue yet
            ReqMeta meta = req.meta;
            meta.l2FillId = cs.l2Fill.allocate(req.line, meta, false);
            toL3[static_cast<std::size_t>(channelOf(req.line))].push_back(
                {req.line, meta, now + cfg.caches.l2TagLatency, toL3Seq++});
        }

        if (!res.hit || res.prefetchedHit) {
            triggerL2Prefetcher(
                cs, {req.line, !res.hit, res.prefetchedHit, now});
        }
        cs.toL2.pop_front();
    }
}

void
MemHierarchy::processWbToL2(CoreSide &cs, Cycle now)
{
    for (unsigned n = 0; n < wbPerCycle && !cs.wbToL2.empty(); ++n) {
        const LineAddr line = cs.wbToL2.front();
        const CacheAccessResult res = cs.l2.access(line, true, false);
        if (!res.hit) {
            if (cs.l2Fill.full())
                break;
            ReqMeta meta;
            meta.core = cs.id;
            meta.type = ReqType::Writeback;
            cs.l2Fill.allocateWithData(line, meta, false, now + 1);
        }
        cs.wbToL2.pop_front();
    }
}

// ---------------------------------------------------------------------------
// L3 stage
// ---------------------------------------------------------------------------

void
MemHierarchy::processToL3(Cycle now)
{
    // Sharded L3 demand stage: every channel owns a queue, and the
    // arbiter serves channel heads in global arrival (seq) order so a
    // balanced stream behaves exactly like the historical single
    // queue. A structurally blocked head stalls only its own channel
    // for the rest of the cycle; requests bound for other channels
    // keep flowing, which is what lets the stage scale with the
    // channel count.
    const unsigned budget = l3DemandsPerCycle * channelLanes();
    std::fill(chanStalled.begin(), chanStalled.end(), 0);

    for (unsigned n = 0; n < budget; ++n) {
        // Oldest head among the channels still serviceable this cycle.
        std::size_t best = toL3.size();
        for (std::size_t ch = 0; ch < toL3.size(); ++ch) {
            if (chanStalled[ch] || toL3[ch].empty())
                continue;
            if (best == toL3.size() ||
                toL3[ch].front().seq < toL3[best].front().seq)
                best = ch;
        }
        if (best == toL3.size())
            break; // nothing serviceable left

        std::deque<PendingReq> &q = toL3[best];
        PendingReq &req = q.front();
        // Arrival order implies readyAt order, so if the globally
        // oldest head is not due yet nothing younger is either.
        if (req.readyAt > now)
            break;
        CoreSide &cs = side(req.meta.core);
        const bool c0 = req.meta.core == 0;

        // A head refused last time after both lookups missed skips
        // them while the fill queue's content epoch stands still.
        BlockedMiss &memo = toL3Blocked[best];
        const bool known_miss = memo.matches(req.line, l3Fill.epoch());

        // L3 fill-queue CAM: promote an in-flight prefetch of ours.
        FillQueueEntry *const e =
            known_miss ? nullptr : l3Fill.find(req.line);
        if (e) {
            if (e->isPrefetch && e->meta.core == req.meta.core) {
                e->isPrefetch = false;
                e->meta.needL2 = true;
                e->meta.needL1 = req.meta.needL1;
                e->meta.mshrId = req.meta.mshrId;
                e->meta.l1PrefetchBit = req.meta.l1PrefetchBit;
                // The demand's reserved L2 fill entry is dropped; the
                // promoted block allocates its own on arrival.
                cs.l2Fill.release(req.meta.l2FillId);
                if (e->meta.wasL2Prefetch)
                    cs.l2pf->onLatePromotion(req.line, now);
                if (c0)
                    ++stats.l2LatePromotions;
                q.pop_front();
                continue;
            }
            // Same line in flight for another core: fall through and
            // fetch a duplicate (cores do not share data in practice).
        }

        // Check the miss path's structural gates *before* touching the
        // cache, so a blocked request retries with no side effects
        // (no stat double-counting, no replacement churn). A full L3
        // fill queue is global backpressure — every channel's misses
        // need an entry, so the whole stage stops, as it always has. A
        // full per-core read queue is channel-local congestion: only
        // this channel stalls and the others keep draining.
        const bool will_hit = !known_miss && l3Cache.probe(req.line);
        if (!will_hit) {
            if (!e)
                memo = {req.line, l3Fill.epoch()};
            if (l3Fill.full())
                break; // retry next cycle
            if (controller(static_cast<int>(best))
                    .readQueueFull(req.meta.core)) {
                chanStalled[best] = 1; // others continue
                ++stats.l3ChannelStalls;
                continue;
            }
        }

        l3Cache.access(req.line, false, false);
        if (c0)
            ++stats.l3Accesses;

        if (will_hit) {
            cs.l2Fill.fillData(req.meta.l2FillId,
                               now + cfg.caches.l3Latency);
        } else {
            if (c0)
                ++stats.l3Misses;
            // Sec. 5.4: on an L3 miss the L2 fill entry is released and
            // the request becomes an L1/L2/L3 miss.
            cs.l2Fill.release(req.meta.l2FillId);
            ReqMeta meta = req.meta;
            meta.l2FillId = invalidMshr;
            meta.needL2 = true;
            meta.l3FillId = l3Fill.allocate(req.line, meta, false);
            // Keep the fill-queue entry's own meta in sync with the id.
            l3Fill.entry(meta.l3FillId).meta = meta;
            controller(static_cast<int>(best))
                .enqueueRead(req.line, meta,
                             now + cfg.caches.l3TagLatency);
        }
        q.pop_front();
    }
}

void
MemHierarchy::processPrefetchQueues(Cycle now)
{
    // Prefetch issue is round-robin over the cores' prefetch queues (a
    // per-core resource); the per-cycle budget scales with the channel
    // count like the demand stage. A prefetch whose target channel is
    // congested stays queued without blocking other cores (continue,
    // not break), so the path is already channel-sharded.
    const unsigned budget = l3PrefetchesPerCycle * channelLanes();
    const unsigned active = static_cast<unsigned>(cfg.activeCores);
    for (unsigned n = 0; n < budget; ++n) {
        bool issued = false;
        for (int i = 0; i < cfg.activeCores && !issued; ++i) {
            // Round-robin wrap without the runtime-divisor modulo (this
            // scan runs every cycle): both operands are < active.
            unsigned rr = prefetchRr + static_cast<unsigned>(i);
            if (rr >= active)
                rr -= active;
            const CoreId c = static_cast<CoreId>(rr);
            CoreSide &cs = side(c);
            const PrefetchRequest *req = cs.prefetchQueue.peekReady(now);
            if (!req)
                continue;
            const bool c0 = c == 0;

            const bool known_miss =
                cs.pfBlocked.matches(req->line, l3Fill.epoch());
            if (!known_miss && l3Fill.find(req->line)) {
                // Already being fetched: redundant prefetch.
                cs.prefetchQueue.popFront(now);
                if (c0)
                    ++stats.l2PrefDropped;
                issued = true;
                continue;
            }

            // Gate before accessing, so retries have no side effects.
            const bool will_hit =
                !known_miss && l3Cache.probe(req->line);
            if (will_hit) {
                if (cs.l2Fill.full())
                    continue; // leave in queue, retry
                l3Cache.access(req->line, false, false);
                cs.l2Fill.allocateWithData(req->line, req->meta, true,
                                           now + cfg.caches.l3Latency);
                cs.prefetchQueue.popFront(now);
                issued = true;
            } else {
                // Both lookups missed: remember that, then gate (the
                // fill queue first, before computing the channel).
                cs.pfBlocked = {req->line, l3Fill.epoch()};
                if (l3Fill.full())
                    continue; // leave in queue, retry
                const int ch = channelOf(req->line);
                if (controller(ch).readQueueFull(c))
                    continue; // leave in queue, retry
                ReqMeta meta = req->meta;
                meta.l3FillId = l3Fill.allocate(req->line, meta, true);
                l3Fill.entry(meta.l3FillId).meta = meta;
                controller(ch).enqueueRead(req->line, meta,
                                           now + cfg.caches.l3TagLatency);
                cs.prefetchQueue.popFront(now);
                issued = true;
            }
        }
        if (++prefetchRr >= active)
            prefetchRr = 0;
        if (!issued)
            break;
    }
}

void
MemHierarchy::drainDramCompletions(Cycle now)
{
    for (auto &mc : mcs) {
        // Most completed reads sit with a future finishCycle (the data
        // burst is still on the bus); the min-finish gate spares both
        // the vector round trip and the erase scan until one is due.
        if (mc->nextCompletionAt() > now)
            continue;
        for (const CompletedRead &r : mc->popCompleted(now)) {
            assert(r.meta.l3FillId != invalidMshr);
            l3Fill.fillData(r.meta.l3FillId, now + 1);
        }
    }
}

bool
MemHierarchy::drainOneL3Fill(Cycle now)
{
    FillQueueEntry *e = l3Fill.peekReady(now);
    if (!e)
        return false;

    const LineAddr line = e->line;
    CoreSide &cs = side(e->meta.core);

    if (e->meta.needL2 && cs.l2Fill.full())
        return false; // forwarding target full: stall

    if (!l3Cache.probe(line)) {
        const CacheVictim victim = l3Cache.peekVictim(line);
        if (victim.valid && victim.dirty &&
            controller(channelOf(victim.line))
                .writeQueueFull(victim.core)) {
            return false; // cannot sink the dirty victim: stall
        }
    }

    const FillQueueEntry entry = *e;
    l3Fill.removeById(e->id);

    CacheFill fill;
    fill.core = entry.meta.core;
    fill.demand = !entry.isPrefetch && entry.meta.type != ReqType::Writeback;
    fill.markDirty = entry.meta.type == ReqType::Writeback;
    const CacheVictim victim = l3Cache.fill(line, fill).victim;
    if (victim.valid && victim.dirty) {
        controller(channelOf(victim.line))
            .enqueueWrite(victim.line, victim.core, now);
    }

    if (entry.meta.needL2) {
        cs.l2Fill.allocateWithData(line, entry.meta, entry.isPrefetch,
                                   now + 1);
    }
    return true;
}

void
MemHierarchy::processWbToL3(Cycle now)
{
    for (unsigned n = 0; n < wbPerCycle && !wbToL3.empty(); ++n) {
        if (l3Fill.full())
            break;
        auto [line, core] = wbToL3.front();
        ReqMeta meta;
        meta.core = core;
        meta.type = ReqType::Writeback;
        l3Fill.allocateWithData(line, meta, false, now + 1);
        wbToL3.pop_front();
    }
}

// ---------------------------------------------------------------------------
// Fills into L2 / DL1
// ---------------------------------------------------------------------------

void
MemHierarchy::drainL2Fill(CoreSide &cs, Cycle now)
{
    const bool c0 = cs.id == 0;
    for (unsigned n = 0; n < l2FillsPerCycle; ++n) {
        auto popped = cs.l2Fill.popReady(now);
        if (!popped)
            return;
        FillQueueEntry &entry = *popped;

        CacheFill fill;
        fill.core = entry.meta.core;
        fill.demand = !entry.isPrefetch &&
                      entry.meta.type != ReqType::Writeback;
        fill.markPrefetch = entry.isPrefetch;
        fill.markDirty = entry.meta.type == ReqType::Writeback;
        const CacheFillResult res = cs.l2.fill(entry.line, fill);
        if (res.inserted) {
            const CacheVictim &victim = res.victim;
            if (victim.valid && victim.dirty)
                wbToL3.push_back({victim.line, entry.meta.core});
            if (victim.valid) {
                cs.l2pf->onEvict({victim.line, victim.prefetchBit,
                                  entry.isPrefetch, now});
                if (victim.prefetchBit && c0)
                    ++stats.l2PrefUselessEvicted;
            }

            if (entry.meta.type != ReqType::Writeback) {
                cs.l2pf->onFill(
                    {entry.line, entry.meta.wasL2Prefetch, now});
                if (entry.isPrefetch && c0)
                    ++stats.l2PrefFills;
            }
        }

        if (entry.meta.needL1)
            cs.dl1Due.push_back({entry.line, entry.meta, now + 1});
    }
}

void
MemHierarchy::processDl1Deliveries(CoreSide &cs, Cycle now)
{
    std::size_t keep = 0;
    for (std::size_t i = 0; i < cs.dl1Due.size(); ++i) {
        Dl1Delivery &d = cs.dl1Due[i];
        if (d.at > now) {
            cs.dl1Due[keep++] = d;
            continue;
        }

        // A side only ever holds deliveries for its own core.
        assert(d.meta.core == cs.id);
        auto m = cs.mshr.complete(d.line);
        const bool store_intent = m && m->storeIntent;
        const bool prefetch_only = m && m->prefetchOnly;

        CacheFill fill;
        fill.core = d.meta.core;
        fill.demand = !prefetch_only;
        fill.markPrefetch = d.meta.l1PrefetchBit && prefetch_only;
        fill.markDirty = store_intent;
        const CacheVictim victim = cs.dl1.fill(d.line, fill).victim;
        if (victim.valid && victim.dirty)
            cs.wbToL2.push_back(victim.line);

        if (m) {
            CoreModel *core = cores[static_cast<std::size_t>(d.meta.core)];
            for (const std::uint32_t tag : m->waiters)
                core->loadCompleted(tag, now);
            if (m->storeWaiters > 0)
                core->storeCompleted(m->storeWaiters);
        }
    }
    cs.dl1Due.resize(keep);
}

// ---------------------------------------------------------------------------
// Top-level tick + stats
// ---------------------------------------------------------------------------

void
MemHierarchy::tick(Cycle now)
{
    horizonStaleFlag = true;
    // Jump-safety for the one piece of per-tick state that advances
    // even when the uncore is idle: processPrefetchQueues moves the
    // round-robin pointer by exactly one on every tick that issues
    // nothing. A fast-forwarded stretch is by construction a run of
    // such ticks (no prefetch-queue entry was ready anywhere in it),
    // so catching the pointer up by the gap keeps the arbitration
    // order bit-identical to single-stepping.
    if (now > lastTicked + 1) {
        const Cycle gap = now - lastTicked - 1;
        const unsigned active = static_cast<unsigned>(cfg.activeCores);
        prefetchRr = static_cast<unsigned>((prefetchRr + gap) % active);
    }
    lastTicked = now;

    for (auto &sd : sides) {
        processWbToL2(*sd, now);
        processToL2(*sd, now);
    }
    processToL3(now);
    processPrefetchQueues(now);

    for (auto &mc : mcs) {
        mc->setL3FillQueueFull(l3Fill.full());
        mc->tick(now);
    }
    drainDramCompletions(now);

    for (unsigned n = 0; n < l3FillsPerCycle; ++n) {
        if (!drainOneL3Fill(now))
            break;
    }
    processWbToL3(now);

    for (auto &sd : sides) {
        drainL2Fill(*sd, now);
        processDl1Deliveries(*sd, now);
    }
}

Cycle
MemHierarchy::nextEventAt(Cycle now) const
{
    const Cycle next = now + 1;
    Cycle ev = neverCycle;

    // Helper: fold in a time-gated event; a source already due (or due
    // next cycle) pins the horizon to next, which short-circuits the
    // caller via the `ev == next` checks below.
    const auto fold = [&](Cycle at) {
        ev = std::min(ev, std::max(next, at));
    };

    for (const auto &sd : sides) {
        // DL1 dirty victims drain unconditionally while queued.
        if (!sd->wbToL2.empty())
            return next;
        // The DL1-miss path is strict FIFO: only the front gates.
        if (!sd->toL2.empty())
            fold(sd->toL2.front().readyAt);
        // Fill-queue entries carrying data insert at their readyAt;
        // data-less entries wait on downstream components' events.
        fold(sd->l2Fill.minReadyAt());
        fold(sd->prefetchQueue.minReadyAt());
        for (const Dl1Delivery &d : sd->dl1Due)
            fold(d.at);
        if (ev == next)
            return next;
    }

    // L2 dirty victims into the L3 drain unconditionally.
    if (!wbToL3.empty())
        return next;
    // Sharded L3 demand queues: served in global arrival order, and
    // arrival order implies readyAt order within a shard, so the shard
    // heads bound the next serviceable request.
    for (const auto &q : toL3) {
        if (!q.empty())
            fold(q.front().readyAt);
    }
    fold(l3Fill.minReadyAt());
    for (const auto &mc : mcs)
        fold(mc->nextEventAt(now));
    return ev;
}

RunStats
MemHierarchy::collectStats() const
{
    RunStats out = stats;
    for (const auto &mc : mcs) {
        const DramChannelStats &s = mc->stats();
        out.dramReads += s.reads;
        out.dramWrites += s.writes;
        out.dramRowHits += s.rowHits;
        out.dramRowMisses += s.rowMisses;
    }
    if (const auto *bo = dynamic_cast<const BestOffsetPrefetcher *>(
            sides[0]->l2pf.get())) {
        out.boLearningPhases = bo->learningPhases();
        out.boPrefetchOffPhases = bo->offPhases();
        out.boFinalOffset = bo->currentOffset();
        out.boFinalScore = bo->lastPhaseBestScore();
    }
    return out;
}

bool
MemHierarchy::anyToL3() const
{
    for (const auto &q : toL3) {
        if (!q.empty())
            return true;
    }
    return false;
}

bool
MemHierarchy::quiescent() const
{
    if (anyToL3() || !wbToL3.empty() || l3Fill.size() > 0)
        return false;
    for (const auto &side : sides) {
        if (!side->toL2.empty() || !side->wbToL2.empty() ||
            !side->dl1Due.empty() || side->l2Fill.size() > 0 ||
            !side->prefetchQueue.empty() || side->mshr.size() > 0) {
            return false;
        }
    }
    for (const auto &mc : mcs) {
        if (mc->anyPending())
            return false;
    }
    return true;
}

void
MemHierarchy::serialize(Serializer &s, Cycle now)
{
    auto pending_req = [](Serializer &sr, PendingReq &r) {
        sr.value(r.line);
        r.meta.serialize(sr);
        sr.value(r.readyAt);
        sr.value(r.seq);
    };

    for (auto &sp : sides) {
        CoreSide &cs = *sp;
        cs.dl1.serialize(s);
        cs.l2.serialize(s);
        cs.mshr.serialize(s);
        cs.l2Fill.serialize(s);
        cs.prefetchQueue.serialize(s);
        cs.l2pf->serialize(s);
        if (cs.stride)
            cs.stride->serialize(s);
        cs.tlb.serialize(s);
        s.seq(cs.toL2, pending_req);
        s.seq(cs.wbToL2, [](Serializer &sr, LineAddr &l) {
            sr.value(l);
        });
        s.seq(cs.dl1Due, [](Serializer &sr, Dl1Delivery &d) {
            sr.value(d.line);
            d.meta.serialize(sr);
            sr.value(d.at);
        });
    }

    l3Cache.serialize(s);
    l3Fill.serialize(s);

    for (auto &q : toL3)
        s.seq(q, pending_req);
    s.value(toL3Seq);
    s.seq(wbToL3, [](Serializer &sr, std::pair<LineAddr, CoreId> &wb) {
        sr.value(wb.first);
        sr.value(wb.second);
    });
    // Save the pointer as ticking every cycle through @p now would
    // leave it, applying the catch-up tick() makes for skipped idle
    // ticks; a restore resumes from @p now.
    const unsigned active = static_cast<unsigned>(cfg.activeCores);
    unsigned rr = prefetchRr;
    if (!s.loading())
        rr = static_cast<unsigned>((rr + (now - lastTicked)) % active);
    s.value(rr);
    stats.serialize(s);
    if (s.loading()) {
        if (rr >= active)
            s.fail("prefetch round-robin pointer out of range");
        prefetchRr = rr;
        lastTicked = now;
        horizonStaleFlag = true;
        for (auto &cs : sides)
            cs->pfBlocked = {};
        std::fill(toL3Blocked.begin(), toL3Blocked.end(), BlockedMiss{});
    }
}

void
MemHierarchy::serializeDram(Serializer &s)
{
    for (auto &mc : mcs)
        mc->serialize(s);
}

} // namespace bop
