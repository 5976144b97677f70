/**
 * @file
 * Tests for the synthetic trace generators.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "trace/generators.hh"
#include "trace/workloads.hh"

namespace bop
{
namespace
{

WorkloadSpec
simpleSpec()
{
    WorkloadSpec w;
    w.name = "unit";
    w.memFraction = 0.4;
    w.branchFraction = 0.1;
    w.streams = {StreamSpec{}};
    w.streams[0].regionBytes = 1 << 20;
    w.streams[0].stepBytes = 64;
    return w;
}

TEST(TraceGen, Deterministic)
{
    SyntheticTrace a(simpleSpec(), 42);
    SyntheticTrace b(simpleSpec(), 42);
    for (int i = 0; i < 10000; ++i) {
        const TraceInstr x = a.next();
        const TraceInstr y = b.next();
        EXPECT_EQ(static_cast<int>(x.kind), static_cast<int>(y.kind));
        EXPECT_EQ(x.vaddr, y.vaddr);
        EXPECT_EQ(x.pc, y.pc);
        EXPECT_EQ(x.taken, y.taken);
    }
}

TEST(TraceGen, SeedChangesStream)
{
    SyntheticTrace a(simpleSpec(), 1);
    SyntheticTrace b(simpleSpec(), 2);
    int differences = 0;
    for (int i = 0; i < 1000; ++i)
        differences += a.next().vaddr != b.next().vaddr;
    EXPECT_GT(differences, 100);
}

TEST(TraceGen, InstructionMixNearFractions)
{
    SyntheticTrace t(simpleSpec(), 7);
    std::map<InstrKind, int> counts;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ++counts[t.next().kind];
    const double mem_frac =
        static_cast<double>(counts[InstrKind::Load] +
                            counts[InstrKind::Store]) / n;
    const double br_frac =
        static_cast<double>(counts[InstrKind::Branch]) / n;
    EXPECT_NEAR(mem_frac, 0.4, 0.02);
    EXPECT_NEAR(br_frac, 0.1, 0.01);
}

TEST(TraceGen, SequentialStreamIsSequential)
{
    WorkloadSpec w = simpleSpec();
    w.memFraction = 1.0;
    w.branchFraction = 0.0;
    SyntheticTrace t(w, 3);
    Addr prev = t.next().vaddr;
    for (int i = 0; i < 1000; ++i) {
        const Addr cur = t.next().vaddr;
        if (cur != w.streams[0].regionBytes * 0 + (prev + 64) &&
            cur > prev) {
            // allow wrap only
        }
        EXPECT_TRUE(cur == prev + 64 || cur < prev) << i;
        prev = cur;
    }
}

TEST(TraceGen, RegionWrapsAndStaysInBounds)
{
    WorkloadSpec w = simpleSpec();
    w.memFraction = 1.0;
    w.branchFraction = 0.0;
    w.streams[0].regionBytes = 4096;
    SyntheticTrace t(w, 3);
    const Addr base = t.next().vaddr;
    for (int i = 0; i < 10000; ++i) {
        const Addr a = t.next().vaddr;
        EXPECT_GE(a, base);
        EXPECT_LT(a, base + 4096);
    }
}

TEST(TraceGen, PointerChaseSetsDependence)
{
    WorkloadSpec w = simpleSpec();
    w.memFraction = 1.0;
    w.branchFraction = 0.0;
    w.streams[0].pattern = StreamPattern::PointerChase;
    SyntheticTrace t(w, 3);
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(t.next().dependsOnPrevLoad);
}

TEST(TraceGen, StoreRatioRespected)
{
    WorkloadSpec w = simpleSpec();
    w.memFraction = 1.0;
    w.branchFraction = 0.0;
    w.streams[0].storeRatio = 1.0;
    SyntheticTrace t(w, 3);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(static_cast<int>(t.next().kind),
                  static_cast<int>(InstrKind::Store));
}

TEST(TraceGen, LoopBranchesFollowPeriod)
{
    WorkloadSpec w = simpleSpec();
    w.memFraction = 0.0;
    w.branchFraction = 1.0;
    w.branchRandomFraction = 0.0;
    w.loopPeriod = 4;
    SyntheticTrace t(w, 3);
    int not_taken = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i)
        not_taken += !t.next().taken;
    EXPECT_NEAR(static_cast<double>(not_taken) / n, 0.25, 0.02);
}

TEST(TraceGen, PhaseOffsetsShiftRegion)
{
    WorkloadSpec w = simpleSpec();
    w.memFraction = 1.0;
    w.branchFraction = 0.0;
    StreamSpec b = w.streams[0];
    b.phaseBytes = 3 * 64;
    b.regionId = w.streams[0].regionId = 5;
    w.streams.push_back(b);
    SyntheticTrace t(w, 3);
    // Both streams live in one region: line numbers modulo 1 line must
    // show both phase classes 0 and 3 (mod the stride in lines).
    bool saw_phase0 = false, saw_phase3 = false;
    Addr base = ~0ull;
    for (int i = 0; i < 1000; ++i) {
        const Addr a = t.next().vaddr;
        base = std::min(base, a);
    }
    SyntheticTrace t2(w, 3);
    for (int i = 0; i < 1000; ++i) {
        const Addr a = t2.next().vaddr;
        const Addr line_in_region = (a - base) >> 6;
        if (line_in_region % 3 == 0 && (a & 63) == 0)
            saw_phase0 = true;
        if ((a - base) % (3 * 64) == 0)
            saw_phase3 = true;
    }
    EXPECT_TRUE(saw_phase0 || saw_phase3);
}

TEST(TraceGen, ThrasherIsStoreHeavySequential)
{
    SyntheticTrace t(makeThrasherSpec(), 11);
    int stores = 0, loads = 0;
    Addr prev = 0;
    bool monotonic = true;
    for (int i = 0; i < 10000; ++i) {
        const TraceInstr in = t.next();
        if (in.kind == InstrKind::Store) {
            ++stores;
            if (prev != 0 && in.vaddr < prev)
                monotonic = false; // wrap allowed once per region pass
            prev = in.vaddr;
        }
        loads += in.kind == InstrKind::Load;
    }
    EXPECT_GT(stores, 4000);
    EXPECT_EQ(loads, 0);
    (void)monotonic;
}

/** FNV-1a over the little-endian bytes of @p v's low @p bytes. */
std::uint64_t
fnvMix(std::uint64_t h, std::uint64_t v, int bytes)
{
    for (int i = 0; i < bytes; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Hash of every field of the first 200k records of @p t. */
std::uint64_t
streamHash(TraceSource &t)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (int i = 0; i < 200000; ++i) {
        const TraceInstr in = t.next();
        h = fnvMix(h, static_cast<std::uint64_t>(in.kind), 1);
        h = fnvMix(h, in.pc, 8);
        h = fnvMix(h, in.vaddr, 8);
        h = fnvMix(h, in.taken, 1);
        h = fnvMix(h, in.dependsOnPrevLoad, 1);
    }
    return h;
}

TEST(TraceGen, GoldenStreamHashes)
{
    // Every generator stream at seed 1, pinned field by field. A slip
    // in draw order or in any per-instruction decision changes these
    // long before it shows in a simulated cycle count. Regenerate only
    // for an intended change of the streams, and say so.
    const std::vector<std::pair<std::string, std::uint64_t>> golden = {
        {"400.perlbench", 0xc027d839d9bc9211ull},
        {"401.bzip2", 0xf3258d475a21c1deull},
        {"403.gcc", 0xbb42792e106aaa49ull},
        {"410.bwaves", 0xc566faadd2db1d9bull},
        {"416.gamess", 0x107b74d555f189ebull},
        {"429.mcf", 0x3287d80ae99e2296ull},
        {"433.milc", 0x03a95954d2ac637dull},
        {"434.zeusmp", 0xc81a5ce9aff93a94ull},
        {"435.gromacs", 0xbbe1a229180222ecull},
        {"436.cactusADM", 0x2e84731dca513365ull},
        {"437.leslie3d", 0x6b7b4c08901164b1ull},
        {"444.namd", 0x7fdd22bafae9e311ull},
        {"445.gobmk", 0xc3af9d54784555bbull},
        {"447.dealII", 0x62ca1c002aa4a951ull},
        {"450.soplex", 0x8a4adb0d9c103e66ull},
        {"453.povray", 0xc0c2077aec6a2966ull},
        {"454.calculix", 0x7474237a650a78aaull},
        {"456.hmmer", 0xca00c4b0fa14c16dull},
        {"458.sjeng", 0x5ead773298143646ull},
        {"459.GemsFDTD", 0x332cf7f35a52ee17ull},
        {"462.libquantum", 0xae1ac4c94a230b40ull},
        {"464.h264ref", 0x440dd2e8322fa273ull},
        {"465.tonto", 0x089d5432a5bf7572ull},
        {"470.lbm", 0x68dd346053da7511ull},
        {"471.omnetpp", 0xf2214b066d548023ull},
        {"473.astar", 0x2a2475bcf0bcfb34ull},
        {"481.wrf", 0x1ffc5aba9800fd12ull},
        {"482.sphinx3", 0x9872fad1aca3ca78ull},
        {"483.xalancbmk", 0xe42cec53f77b0ddaull},
        {"thrasher", 0x85e4790a29931a72ull},
    };
    ASSERT_EQ(golden.size(), benchmarkNames().size() + 1);
    for (const auto &[name, expect] : golden) {
        auto t = name == "thrasher" ? makeThrasher(1) : makeWorkload(name, 1);
        EXPECT_EQ(streamHash(*t), expect) << name;
    }
}

/** The float rule the thresholds replace, on a 53-bit draw. */
bool
floatRule(std::uint64_t u, double p)
{
    return static_cast<double>(u) * (1.0 / 9007199254740992.0) < p;
}

TEST(TraceGen, SpecProbabilityThresholdsMatchTheFloatRule)
{
    // Every probability a built-in spec feeds a threshold, tested at
    // the two draws either side of its boundary. ceil() here is the
    // library's, independent of fractionThreshold's integer rounding.
    std::vector<double> ps = {0.5};
    std::vector<double> chase;
    std::vector<WorkloadSpec> specs = {makeThrasherSpec()};
    for (const std::string &name : benchmarkNames())
        specs.push_back(workloadSpec(name));
    for (const WorkloadSpec &w : specs) {
        for (const double p :
             {w.memFraction, w.memFraction + w.branchFraction,
              w.depFraction, w.branchRandomFraction, w.branchBias,
              w.fpFraction, w.opDepFraction})
            ps.push_back(p);
        for (const StreamSpec &ss : w.streams) {
            for (const double p :
                 {ss.reuseFraction, ss.scramble, ss.storeRatio})
                ps.push_back(p);
            chase.push_back(ss.chaseLocality);
        }
    }
    constexpr std::uint64_t span = 1ull << 53;
    for (const double p : ps) {
        const Chance c(p);
        EXPECT_EQ(c.draws(), p > 0.0 && p < 1.0) << p;
        const double edge = std::ceil(p * 9007199254740992.0);
        const auto e = static_cast<std::uint64_t>(std::min(
            std::max(edge, 0.0), static_cast<double>(span)));
        for (const std::uint64_t u : {e - 1, e}) {
            if (u >= span)
                continue; // not a 53-bit draw (p <= 0 or p >= 1)
            EXPECT_EQ(c.admits(u), floatRule(u, p)) << p << " at " << u;
            EXPECT_EQ(u < fractionThreshold(p), floatRule(u, p))
                << p << " at " << u;
        }
    }
    // The pointer chase's neighbour test on 16 hash bits.
    for (const double p : chase) {
        const std::uint64_t t = fractionThreshold(p, 16);
        for (std::uint64_t x = 0; x < 65536; ++x) {
            ASSERT_EQ(x < t, static_cast<double>(x) < p * 65536.0)
                << p << " at " << x;
        }
    }
}

} // namespace
} // namespace bop
