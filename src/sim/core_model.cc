#include "sim/core_model.hh"

#include <algorithm>
#include <cassert>
#include <new>

namespace bop
{

CoreModel::CoreModel(CoreId id, const CoreParams &params_,
                     TraceSource &trace_, CoreMemInterface &mem_)
    : coreId(id),
      params(params_),
      trace(trace_),
      mem(mem_),
      predictor(0x7a6e + static_cast<std::uint64_t>(id))
{
    rob.resize(params.robSize);
}

bool
CoreModel::depResolved(const RobEntry &e, Cycle &dep_ready) const
{
    if (!e.waitingDep) {
        dep_ready = 0;
        return true;
    }
    const RobEntry &dep = rob[e.depIdx];
    if (!dep.valid || dep.gen != e.depGen) {
        // The producer already retired; its data has long been available.
        dep_ready = 0;
        return true;
    }
    if (dep.done) {
        dep_ready = dep.readyAt;
        return true;
    }
    return false;
}

void
CoreModel::retire(Cycle now)
{
    for (unsigned n = 0; n < params.retireWidth && robCount > 0; ++n) {
        RobEntry &head = rob[robHead];
        if (!head.done || head.readyAt > now)
            break;
        if (head.kind == InstrKind::Load ||
            head.kind == InstrKind::Store) {
            mem.retireMemOp(coreId, head.pc, head.vaddr);
        }
        if (head.kind == InstrKind::Load) {
            assert(loadsInFlight > 0);
            --loadsInFlight;
        }
        head.valid = false;
        // Wraparound without the runtime-divisor modulo: this runs for
        // every retired instruction.
        if (++robHead == params.robSize)
            robHead = 0;
        --robCount;
        ++retiredCount;
    }
}

void
CoreModel::block(std::uint32_t idx)
{
    RobEntry &producer = rob[rob[idx].depIdx];
    if (producer.blockedCount++ == 0)
        producer.blockedFirstSeq = waitSeq;
    blockedQ.push_back({idx, waitSeq++});
}

void
CoreModel::wakeDependents(RobEntry &producer, std::vector<WaitRef> &into,
                          std::size_t from)
{
    const std::uint32_t n = producer.blockedCount;
    if (n == 0)
        return;
    producer.blockedCount = 0;
    const std::uint64_t first = producer.blockedFirstSeq;
    const auto seq_below = [](const WaitRef &a, std::uint64_t s) {
        return a.seq < s;
    };
    const auto run =
        std::lower_bound(blockedQ.begin(), blockedQ.end(), first, seq_below);
    assert(blockedQ.end() - run >= static_cast<std::ptrdiff_t>(n) &&
           run->seq == first && run[n - 1].seq == first + n - 1);
    // No other entry holds a stamp inside the run's consecutive seq
    // range, so the whole run goes in at one sorted position past the
    // already-consumed prefix.
    const auto at =
        std::lower_bound(into.begin() + static_cast<std::ptrdiff_t>(from),
                         into.end(), first, seq_below);
    into.insert(at, run, run + n);
    blockedQ.erase(run, run + n);
}

void
CoreModel::issueWaiting(Cycle now)
{
    if (readyQ.empty())
        return;
    // Two-way merge in seq order of the ready list against entries
    // woken mid-scan: a load completing as a cache hit wakes its
    // blocked dependents, whose stamps are all greater than the
    // producer's (a dependent dispatches after its producer), so the
    // merged visit order is exactly the order the historical single
    // list scan processed these entries in.
    keepScratch.clear();
    wokenScratch.clear();
    std::size_t ri = 0;
    std::size_t wi = 0;
    for (;;) {
        const bool have_r = ri < readyQ.size();
        const bool have_w = wi < wokenScratch.size();
        if (!have_r && !have_w)
            break;
        WaitRef cur;
        if (!have_w ||
            (have_r && readyQ[ri].seq < wokenScratch[wi].seq))
            cur = readyQ[ri++];
        else
            cur = wokenScratch[wi++];

        const std::uint32_t idx = cur.idx;
        RobEntry &e = rob[idx];
        bool still_waiting = true;

        if (e.valid && !e.done) {
            Cycle dep_ready = 0;
            if (depResolved(e, dep_ready)) {
                const Cycle start = dep_ready > now ? dep_ready : now;
                if (e.kind == InstrKind::Load) {
                    if (start <= now &&
                        loadsThisCycle < params.loadPorts) {
                        ++loadsThisCycle;
                        const LoadOutcome out = mem.coreLoad(
                            coreId, e.vaddr, e.pc, idx, now);
                        if (out.kind == LoadOutcome::Kind::Hit) {
                            e.done = true;
                            e.readyAt = out.readyAt;
                            e.issued = true;
                            still_waiting = false;
                            wakeDependents(e, wokenScratch, wi);
                        } else if (out.kind == LoadOutcome::Kind::Pending) {
                            e.issued = true;
                            e.waitingDep = false;
                            still_waiting = false;
                        }
                        // Retry: stays in the ready list.
                    }
                } else if (e.kind == InstrKind::Branch) {
                    // Load-dependent branch: resolves when the load data
                    // arrives; a mispredict redirects fetch then.
                    e.done = true;
                    e.readyAt = start;
                    if (e.mispredict) {
                        fetchStallUntil = start + params.branchPenalty;
                        stalledOnBranchDep = false;
                    }
                    still_waiting = false;
                } else {
                    e.done = true;
                    e.readyAt = start + (e.kind == InstrKind::FpOp
                                             ? params.fpLatency
                                             : params.intLatency);
                    still_waiting = false;
                }
            }
        } else {
            still_waiting = false;
        }

        if (still_waiting)
            keepScratch.push_back(cur);
    }
    readyQ.swap(keepScratch);
}

bool
CoreModel::dispatchOne(const TraceInstr &instr, Cycle now)
{
    assert(robCount < params.robSize);

    const std::uint32_t idx = robTail;
    RobEntry &e = rob[idx];
    e = RobEntry{};
    e.valid = true;
    e.kind = instr.kind;
    e.pc = instr.pc;
    e.vaddr = instr.vaddr;
    e.gen = genCounter++;

    Cycle dep_ready = 0;
    bool dep_pending = false;
    if (instr.dependsOnPrevLoad && lastLoadGen != 0) {
        const RobEntry &dep = rob[lastLoadIdx];
        if (dep.valid && dep.gen == lastLoadGen) {
            if (dep.done) {
                dep_ready = dep.readyAt;
            } else {
                dep_pending = true;
                e.waitingDep = true;
                e.depIdx = lastLoadIdx;
                e.depGen = lastLoadGen;
            }
        }
    }

    switch (instr.kind) {
      case InstrKind::IntOp:
      case InstrKind::FpOp: {
        // Dependent ALU latency hides behind the in-order retirement of
        // the producing load, so it resolves at dep_ready + latency.
        const Cycle start = dep_ready > now ? dep_ready : now;
        const unsigned lat = instr.kind == InstrKind::FpOp
                                 ? params.fpLatency
                                 : params.intLatency;
        e.done = true;
        e.readyAt = start + lat;
        e.waitingDep = false;
        break;
      }

      case InstrKind::Load: {
        if (loadsInFlight >= params.loadQueue) {
            e.valid = false;
            return false; // load queue full: dispatch stalls
        }
        ++loadsInFlight;
        if (dep_pending) {
            block(idx);
        } else if (loadsThisCycle >= params.loadPorts) {
            readyQ.push_back({idx, waitSeq++});
        } else {
            ++loadsThisCycle;
            const LoadOutcome out =
                mem.coreLoad(coreId, instr.vaddr, instr.pc, idx, now);
            if (out.kind == LoadOutcome::Kind::Hit) {
                e.done = true;
                e.readyAt = out.readyAt;
                e.issued = true;
            } else if (out.kind == LoadOutcome::Kind::Pending) {
                e.issued = true;
            } else {
                readyQ.push_back({idx, waitSeq++}); // MSHRs full: retry
            }
        }
        lastLoadIdx = idx;
        lastLoadGen = e.gen;
        break;
      }

      case InstrKind::Store: {
        if (pendingStores >= params.storeQueue ||
            storesThisCycle >= params.storePorts) {
            --genCounter;
            e.valid = false;
            return false; // store queue/port full: dispatch stalls
        }
        const StoreOutcome out =
            mem.coreStore(coreId, instr.vaddr, instr.pc, now);
        if (!out.accepted) {
            --genCounter;
            e.valid = false;
            return false; // MSHRs full: dispatch stalls
        }
        ++storesThisCycle;
        if (!out.completedNow)
            ++pendingStores;
        // Stores retire without waiting for the write to complete.
        e.done = true;
        e.readyAt = now + 1;
        e.waitingDep = false;
        break;
      }

      case InstrKind::Branch: {
        ++branches;
        const bool pred = predictor.predict(instr.pc);
        predictor.update(instr.pc, instr.taken);
        const bool mispredicted = pred != instr.taken;
        if (mispredicted)
            ++mispredicts;
        if (dep_pending) {
            e.mispredict = mispredicted;
            block(idx);
            if (mispredicted) {
                // Redirect happens when the branch executes, i.e. when
                // the load it depends on returns.
                stalledOnBranchDep = true;
            }
        } else {
            const Cycle start = dep_ready > now ? dep_ready : now;
            e.done = true;
            e.readyAt = start + 1;
            if (mispredicted)
                fetchStallUntil = e.readyAt + params.branchPenalty;
        }
        break;
      }
    }

    if (++robTail == params.robSize)
        robTail = 0;
    ++robCount;
    return true;
}

Cycle
CoreModel::nextEventAt(Cycle now) const
{
    const Cycle next = now + 1;
    Cycle ev = neverCycle;

    // Dispatch. Unless fetch is redirect-stalled or the ROB is full,
    // the next tick attempts to dispatch — with side effects (at
    // minimum trace.next() when no instruction is held). The one
    // provably recurring stall: a held load/store that cannot enter
    // its full load/store queue, which only retirement (below) or a
    // hierarchy storeCompleted() callback can unblock.
    if (!stalledOnBranchDep && robCount < params.robSize) {
        if (!holdBlocked()) {
            if (fetchStallUntil <= next)
                return next;
            ev = fetchStallUntil;
        }
    }

    // Retirement: a completed ROB head retires at its readyAt. An
    // incomplete head is waiting on a loadCompleted() callback — that
    // event lives on the hierarchy's horizon, not ours.
    if (robCount > 0) {
        const RobEntry &head = rob[robHead];
        if (head.done) {
            if (head.readyAt <= next)
                return next;
            ev = std::min(ev, head.readyAt);
        }
    }

    // The waiting list is pre-partitioned: readyQ holds exactly the
    // entries issueWaiting will (re)process at the next tick. One kind
    // does nothing there: a load whose producer completes at a known
    // future cycle (dep_ready), which issues no earlier. Anything else
    // in readyQ acts at the next tick. Blocked entries wait for a wake
    // (the producer's completion, an event on the hierarchy's or this
    // scan's own horizon) and contribute no event of their own.
    for (const WaitRef &w : readyQ) {
        const RobEntry &e = rob[w.idx];
        Cycle dep_ready = 0;
        if (!e.valid || e.done || e.kind != InstrKind::Load ||
            !depResolved(e, dep_ready) || dep_ready <= next)
            return next;
        ev = std::min(ev, dep_ready);
    }
    return ev;
}

bool
CoreModel::holdBlocked() const
{
    return holdValid &&
           ((holdInstr.kind == InstrKind::Load &&
             loadsInFlight >= params.loadQueue) ||
            (holdInstr.kind == InstrKind::Store &&
             pendingStores >= params.storeQueue));
}

void
CoreModel::settle(Cycle through)
{
    if (through <= settledThrough)
        return;
    if (readyAfterTick) {
        // The skipped ticks each reset the port counters and, once
        // fetch was no longer redirect-stalled, retried the held
        // instruction against its full queue. A refused load keeps
        // the generation stamp it drew (a store returns it), and the
        // last refusal leaves the instruction in the ROB tail slot.
        loadsThisCycle = 0;
        storesThisCycle = 0;
        const Cycle first = std::max(settledThrough + 1, fetchStallUntil);
        if (first <= through && holdBlocked() && !stalledOnBranchDep &&
            robCount < params.robSize) {
            if (holdInstr.kind == InstrKind::Load)
                genCounter += through - first;
            const bool dispatched = dispatchOne(holdInstr, through);
            assert(!dispatched);
            (void)dispatched;
        }
    }
    settledThrough = through;
}

void
CoreModel::tick(Cycle now)
{
    settle(now - 1);
    horizonStaleFlag = true;
    loadsThisCycle = 0;
    storesThisCycle = 0;

    retire(now);
    issueWaiting(now);

    for (unsigned n = 0; n < params.dispatchWidth; ++n) {
        if (robCount >= params.robSize)
            break;
        if (stalledOnBranchDep || now < fetchStallUntil)
            break;

        if (!holdValid) {
            // The source builds the record straight in the hold slot
            // (the returned prvalue initializes it, no temporary). An
            // assignment would copy it through a temporary, reading the
            // source's field-by-field stores back in wider loads, which
            // the CPU cannot forward from its store buffer.
            ::new (static_cast<void *>(&holdInstr)) TraceInstr(trace.next());
            holdValid = true;
        }
        if (!dispatchOne(holdInstr, now))
            break; // structural stall: retry the held instruction
        holdValid = false;
    }
    settledThrough = now;
    readyAfterTick = !readyQ.empty();
}

void
CoreModel::loadCompleted(std::uint32_t rob_tag, Cycle when)
{
    settle(when);
    RobEntry &e = rob[rob_tag];
    assert(e.valid && e.kind == InstrKind::Load && e.issued);
    e.done = true;
    e.readyAt = when;
    // Entries parked on this load become processable: merge them into
    // the ready list at their seq positions.
    wakeDependents(e, readyQ, 0);
    horizonStaleFlag = true;
}

void
CoreModel::storeCompleted(int count, Cycle when)
{
    settle(when);
    assert(pendingStores >= static_cast<std::size_t>(count));
    pendingStores -= static_cast<std::size_t>(count);
    horizonStaleFlag = true;
}

void
CoreModel::serialize(Serializer &s, Cycle now)
{
    if (!s.loading())
        settle(now);
    const std::size_t rob_size = rob.size();
    predictor.serialize(s);
    s.seq(rob, [](Serializer &sr, RobEntry &e) {
        sr.value(e.valid);
        sr.value(e.kind);
        sr.value(e.done);
        sr.value(e.readyAt);
        sr.value(e.pc);
        sr.value(e.vaddr);
        sr.value(e.gen);
        sr.value(e.waitingDep);
        sr.value(e.depIdx);
        sr.value(e.depGen);
        sr.value(e.issued);
        sr.value(e.mispredict);
    });
    s.value(robHead);
    s.value(robTail);
    std::uint64_t rob_count = robCount;
    s.value(rob_count);
    s.value(genCounter);
    auto wait_ref = [](Serializer &sr, WaitRef &w) {
        sr.value(w.idx);
        sr.value(w.seq);
    };
    s.seq(readyQ, wait_ref);
    s.seq(blockedQ, wait_ref);
    s.value(waitSeq);
    s.value(holdValid);
    holdInstr.serialize(s);
    s.value(fetchStallUntil);
    s.value(stalledOnBranchDep);
    s.value(lastLoadIdx);
    s.value(lastLoadGen);
    s.value(loadsThisCycle);
    s.value(storesThisCycle);
    std::uint64_t loads64 = loadsInFlight;
    std::uint64_t stores64 = pendingStores;
    s.value(loads64);
    s.value(stores64);
    s.value(retiredCount);
    s.value(branches);
    s.value(mispredicts);
    if (s.loading()) {
        if (rob.size() != rob_size)
            s.fail("ROB size mismatch");
        if (rob_count > rob_size || robHead >= rob_size ||
            robTail >= rob_size)
            s.fail("ROB occupancy out of range");
        if (readyQ.size() > rob_size || blockedQ.size() > rob_size)
            s.fail("waiting-list length out of range");
        for (const WaitRef &w : readyQ) {
            if (w.idx >= rob_size)
                s.fail("ready-list entry out of range");
        }
        rebuildBlockedRuns(s);
        robCount = static_cast<std::size_t>(rob_count);
        loadsInFlight = static_cast<std::size_t>(loads64);
        pendingStores = static_cast<std::size_t>(stores64);
        settledThrough = now;
        readyAfterTick = !readyQ.empty();
        // The cached event horizon is a pure function of the restored
        // state; force its recomputation rather than trusting a value
        // captured under the saving System's clock.
        horizonStaleFlag = true;
    }
}

void
CoreModel::rebuildBlockedRuns(Serializer &s)
{
    for (RobEntry &e : rob)
        e.blockedCount = 0;
    const RobEntry *last_producer = nullptr;
    for (const WaitRef &w : blockedQ) {
        if (w.idx >= rob.size() || rob[w.idx].depIdx >= rob.size())
            s.fail("blocked-list entry out of range");
        if (&w != blockedQ.data() && w.seq <= (&w - 1)->seq)
            s.fail("blocked list out of seq order");
        const RobEntry &e = rob[w.idx];
        RobEntry &producer = rob[e.depIdx];
        if (!e.valid || e.done || !e.waitingDep || !producer.valid ||
            producer.kind != InstrKind::Load || producer.done ||
            producer.gen != e.depGen)
            s.fail("blocked-list entry not parked on a live load");
        if (producer.blockedCount == 0) {
            producer.blockedFirstSeq = w.seq;
        } else if (&producer != last_producer ||
                   w.seq != producer.blockedFirstSeq +
                                producer.blockedCount) {
            s.fail("blocked dependents of a load not consecutive");
        }
        ++producer.blockedCount;
        last_producer = &producer;
    }
}

} // namespace bop
