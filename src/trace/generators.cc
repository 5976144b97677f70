#include "trace/generators.hh"

#include <bit>
#include <cassert>
#include <stdexcept>

namespace bop
{

namespace
{

/** 2^53: one past the largest 53-bit draw. */
constexpr std::uint64_t drawSpan = 1ull << 53;

/**
 * Smallest 53-bit draw u for which the stream pick's float rule
 * `u * 2^-53 * total >= cum` holds (drawSpan when none does). With
 * total >= 0 the rounded product never decreases as u grows, so the
 * rule holds exactly for u >= the returned value.
 */
std::uint64_t
pickThreshold(double total, double cum)
{
    const auto holds = [&](std::uint64_t u) {
        return static_cast<double>(u) * (1.0 / 9007199254740992.0) *
                   total >=
               cum;
    };
    std::uint64_t lo = 0;
    std::uint64_t hi = drawSpan; // holds() is false below lo, true at hi
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (holds(mid))
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

} // namespace

SyntheticTrace::SyntheticTrace(WorkloadSpec spec_, std::uint64_t seed)
    : spec(std::move(spec_)),
      rng(seed ^ splitmix64(0xabcdef ^ spec.name.size())),
      memBelow(fractionThreshold(spec.memFraction)),
      branchBelow(
          fractionThreshold(spec.memFraction + spec.branchFraction)),
      depChance(spec.depFraction),
      branchRandom(spec.branchRandomFraction),
      branchTaken(spec.branchBias),
      fpChance(spec.fpFraction),
      opDep(spec.opDepFraction)
{
    assert(!spec.streams.empty());

    std::vector<double> cum_weights;
    double cum = 0.0;
    for (std::size_t i = 0; i < spec.streams.size(); ++i) {
        const StreamSpec &ss = spec.streams[i];
        StreamState st;
        st.spec = &spec.streams[i];
        st.reuse = ss.reuseFraction;
        st.scramble = ss.scramble;
        st.store = ss.storeRatio;
        st.chaseNear = fractionThreshold(ss.chaseLocality, 16);
        st.regionLines = ss.regionBytes >> lineShift;
        st.linesPow2 = std::has_single_bit(st.regionLines);

        // Disjoint 16GB-aligned virtual regions per region id (streams
        // sharing a regionId interleave within one region via phase).
        const int region = ss.regionId >= 0 ? ss.regionId
                                            : static_cast<int>(i) + 64;
        st.base = (static_cast<Addr>(region) + 1) * (1ull << 34) +
                  ss.phaseBytes;

        // PC layout: shared groups collapse onto one PC range.
        const int pc_group = ss.sharedPcGroup >= 0
                                 ? ss.sharedPcGroup
                                 : static_cast<int>(i) + 32;
        st.pcBase = 0x400000 + static_cast<Addr>(pc_group) * 0x1000;

        st.chase = splitmix64(seed + i);
        streams.push_back(st);
        cum += ss.weight;
        cum_weights.push_back(cum);
    }
    if (cum < 0.0) {
        throw std::invalid_argument(
            "SyntheticTrace: stream weights of " + spec.name +
            " sum below zero");
    }
    // The last stream is taken when every earlier test fails.
    for (std::size_t i = 0; i + 1 < cum_weights.size(); ++i)
        pickAt.push_back(pickThreshold(cum, cum_weights[i]));
    opPc = 0x7f0000;
}

Addr
SyntheticTrace::patternAddr(StreamState &st)
{
    const StreamSpec &ss = *st.spec;
    switch (ss.pattern) {
      case StreamPattern::Sequential:
      case StreamPattern::Strided: {
        const Addr a = st.base + st.cursor;
        // This runs per generated memory access and the runtime-divisor
        // division was measurable: one subtract covers the common
        // forward stride, the modulo keeps large/negative (wrapped)
        // steps O(1) with the exact old ring semantics.
        st.cursor += static_cast<std::uint64_t>(ss.stepBytes);
        if (st.cursor >= ss.regionBytes) {
            st.cursor -= ss.regionBytes;
            if (st.cursor >= ss.regionBytes)
                st.cursor %= ss.regionBytes;
        }
        return a;
      }
      case StreamPattern::PointerChase: {
        st.chase = splitmix64(st.chase);
        const std::uint64_t prev_line =
            (st.chasePrev - st.base) >> lineShift;
        std::uint64_t line;
        if (st.chasePrev != 0 && (st.chase & 0xffff) < st.chaseNear) {
            // Allocation-order locality: neighbour node, 1..4 lines on.
            line = wrapLine(st, prev_line + 1 + ((st.chase >> 16) & 3));
        } else {
            line = wrapLine(st, st.chase >> 16);
        }
        const Addr a = st.base + (line << lineShift);
        st.chasePrev = a;
        return a;
      }
      case StreamPattern::Random: {
        const std::uint64_t line = wrapLine(st, rng.next());
        return st.base + (line << lineShift);
      }
    }
    return st.base;
}

Addr
SyntheticTrace::streamAddr(StreamState &st)
{
    const StreamSpec &ss = *st.spec;

    // Temporal reuse: revisit a random recent element (DL1-resident
    // short-range locality).
    st.lastWasReuse = false;
    if (ss.reuseFraction > 0.0 && !st.recent.empty() &&
        rng.chance(st.reuse)) {
        st.lastWasReuse = true;
        st.lastSubIndex = static_cast<int>(rng.below(8));
        const Addr elem = st.recent[rng.below(st.recent.size())];
        return elem + static_cast<Addr>(st.lastSubIndex) * 8;
    }

    // Multiple accesses per element: read several "fields" of the
    // element (same line, +8B offsets — DL1 hits after the first)
    // before moving the cursor on. Each field index is produced by a
    // distinct PC (see next()), so per-PC strides remain constant and
    // the DL1 stride prefetcher sees what it would see in real code.
    if (ss.accessesPerElement > 1) {
        if (st.subAccess == 0 || st.elementAddr == 0) {
            st.elementAddr = ss.scramble > 0.0 ? scrambledAddr(st)
                                               : patternAddr(st);
            rememberElement(st, st.elementAddr);
        }
        st.lastSubIndex = st.subAccess;
        const Addr a =
            st.elementAddr + static_cast<Addr>(st.subAccess % 8) * 8;
        if (++st.subAccess == ss.accessesPerElement)
            st.subAccess = 0;
        return a;
    }

    st.lastSubIndex = 0;
    const Addr a = ss.scramble <= 0.0 ? patternAddr(st)
                                      : scrambledAddr(st);
    rememberElement(st, a);
    return a;
}

void
SyntheticTrace::rememberElement(StreamState &st, Addr elem)
{
    if (st.spec->reuseFraction <= 0.0)
        return;
    constexpr std::size_t ring = 16;
    if (st.recent.size() < ring) {
        st.recent.push_back(elem);
    } else {
        st.recent[st.recentPos] = elem;
        st.recentPos = (st.recentPos + 1) % ring;
    }
}

Addr
SyntheticTrace::scrambledAddr(StreamState &st)
{
    // Scrambling (Sec. 3.1): keep a small pool of upcoming addresses
    // and emit them mildly out of order.
    constexpr std::size_t pool_size = 8;
    while (st.pool.size() < pool_size)
        st.pool.push_back(patternAddr(st));
    std::size_t pick = 0;
    if (rng.chance(st.scramble))
        pick = rng.below(pool_size); // == st.pool.size(), a constant
    const Addr a = st.pool[pick];
    st.pool.erase(st.pool.begin() + static_cast<std::ptrdiff_t>(pick));
    return a;
}

TraceInstr
SyntheticTrace::next()
{
    TraceInstr instr;
    // 53-bit draws tested against integer thresholds: the same
    // decisions as the float rules the thresholds are derived from.
    const std::uint64_t r = rng.next() >> 11;

    if (r < memBelow) {
        // Pick a stream by weight.
        const std::uint64_t pick = rng.next() >> 11;
        std::size_t idx = 0;
        while (idx < pickAt.size() && pick >= pickAt[idx])
            ++idx;
        StreamState &st = streams[idx];
        const StreamSpec &ss = *st.spec;

        instr.vaddr = streamAddr(st);
        instr.kind =
            rng.chance(st.store) ? InstrKind::Store : InstrKind::Load;
        // One PC per element field (so each PC's stride is constant);
        // multi-PC streams additionally rotate through pcCount PCs.
        // Reuse accesses are separate instructions in real code, so
        // they use their own PC range and never pollute the stride
        // history of the streaming PCs.
        instr.pc = st.pcBase +
                   static_cast<Addr>(st.lastSubIndex) * 4 +
                   static_cast<Addr>(st.pcIndex) * 64 +
                   (st.lastWasReuse ? 0x800 : 0);
        if (ss.pcCount > 1 && ++st.pcIndex == ss.pcCount)
            st.pcIndex = 0;

        instr.dependsOnPrevLoad =
            ss.pattern == StreamPattern::PointerChase ||
            rng.chance(depChance);
    } else if (r < branchBelow) {
        instr.kind = InstrKind::Branch;
        if (rng.chance(branchRandom)) {
            // Data-dependent, hard-to-predict branch.
            instr.pc = 0x500000;
            instr.taken = rng.chance(branchTaken);
            instr.dependsOnPrevLoad = rng.chance(0.5);
        } else {
            // Loop branch: taken except every loopPeriod-th execution
            // (phase counter == the modulo, without the division).
            instr.pc = 0x500100;
            ++loopCounter;
            if (loopCounter == static_cast<std::uint64_t>(spec.loopPeriod))
                loopCounter = 0;
            instr.taken = loopCounter != 0;
        }
    } else {
        instr.kind =
            rng.chance(fpChance) ? InstrKind::FpOp : InstrKind::IntOp;
        instr.pc = opPc;
        instr.dependsOnPrevLoad = rng.chance(opDep);
    }
    return instr;
}

WorkloadSpec
makeThrasherSpec()
{
    WorkloadSpec w;
    w.name = "thrasher";
    w.memFraction = 0.6;
    w.branchFraction = 0.05;
    w.branchRandomFraction = 0.0;
    w.loopPeriod = 64;
    w.opDepFraction = 0.0;
    StreamSpec s;
    s.pattern = StreamPattern::Sequential;
    s.regionBytes = 64ull << 20; // 64MB: 8x the L3
    s.stepBytes = 8;             // write every word, like a huge memset
    s.storeRatio = 1.0;
    w.streams.push_back(s);
    return w;
}

} // namespace bop
