/**
 * @file
 * Tests for the workload-generator locality mechanisms added during
 * calibration (docs/WORKLOADS.md, "Locality mechanisms"): temporal-
 * reuse rings, per-field PCs, sub-element accesses, and pointer-chase
 * allocation locality.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "trace/generators.hh"

namespace bop
{
namespace
{

WorkloadSpec
chaseOnly(double locality, int ape = 3)
{
    WorkloadSpec w;
    w.name = "chase";
    w.memFraction = 1.0;
    w.branchFraction = 0.0;
    StreamSpec s;
    s.pattern = StreamPattern::PointerChase;
    s.regionBytes = 8 << 20;
    s.accessesPerElement = ape;
    s.chaseLocality = locality;
    w.streams = {s};
    return w;
}

/** Fraction of element transitions landing within 4 lines forward. */
double
nearFraction(SyntheticTrace &t, int samples)
{
    LineAddr prev = 0;
    int near = 0, total = 0;
    for (int i = 0; i < samples; ++i) {
        const TraceInstr in = t.next();
        const LineAddr line = lineOf(in.vaddr);
        if (prev != 0 && line != prev) {
            const std::int64_t d = static_cast<std::int64_t>(line) -
                                   static_cast<std::int64_t>(prev);
            near += d >= 1 && d <= 4;
            ++total;
        }
        prev = line;
    }
    return total ? static_cast<double>(near) / total : 0.0;
}

TEST(ChaseLocality, ZeroMeansUniformJumps)
{
    SyntheticTrace t(chaseOnly(0.0, 1), 5);
    EXPECT_LT(nearFraction(t, 20000), 0.02);
}

TEST(ChaseLocality, KnobRaisesNeighbourTransitions)
{
    SyntheticTrace t(chaseOnly(0.5, 1), 5);
    const double f = nearFraction(t, 20000);
    EXPECT_GT(f, 0.35);
    EXPECT_LT(f, 0.65);
}

/**
 * Regression for the dead chase-locality branch: the
 * accessesPerElement == 1 path used to call patternAddr without ever
 * recording the previous chase element, so the locality guard never
 * fired and the knob was a no-op (neighbour fraction ~0.0001). Both
 * paths must now produce statistically similar neighbour fractions.
 */
TEST(ChaseLocality, SingleAndMultiAccessPathsMatch)
{
    SyntheticTrace single(chaseOnly(0.5, 1), 7);
    SyntheticTrace multi(chaseOnly(0.5, 3), 7);
    const double fs = nearFraction(single, 30000);
    const double fm = nearFraction(multi, 30000);
    EXPECT_GT(fs, 0.35);
    EXPECT_LT(fs, 0.65);
    EXPECT_GT(fm, 0.35);
    EXPECT_LT(fm, 0.65);
    EXPECT_NEAR(fs, fm, 0.06);
}

TEST(ChaseLocality, KnobScalesNeighbourFraction)
{
    SyntheticTrace lo(chaseOnly(0.2, 1), 11);
    SyntheticTrace hi(chaseOnly(0.8, 1), 11);
    EXPECT_NEAR(nearFraction(lo, 30000), 0.2, 0.08);
    EXPECT_NEAR(nearFraction(hi, 30000), 0.8, 0.08);
}

TEST(ChaseLocality, StillDependentLoads)
{
    SyntheticTrace t(chaseOnly(0.5), 5);
    for (int i = 0; i < 200; ++i)
        EXPECT_TRUE(t.next().dependsOnPrevLoad);
}

TEST(ReuseRing, ReuseHitsRecentElements)
{
    WorkloadSpec w;
    w.name = "reuse";
    w.memFraction = 1.0;
    w.branchFraction = 0.0;
    StreamSpec s;
    s.pattern = StreamPattern::Sequential;
    s.regionBytes = 1 << 22;
    s.stepBytes = 64;
    s.reuseFraction = 0.5;
    w.streams = {s};
    SyntheticTrace t(w, 9);

    // Every reused address must match one of the last 16 elements.
    std::set<Addr> recent;
    std::vector<Addr> order;
    int reuses = 0, violations = 0;
    Addr frontier = 0;
    for (int i = 0; i < 20000; ++i) {
        const Addr a = t.next().vaddr & ~63ull; // element base
        if (a > frontier) {
            frontier = a; // new element (monotone for sequential)
            order.push_back(a);
        } else if (a < frontier) {
            ++reuses;
            // must be within the last ~17 distinct elements
            bool found = false;
            for (std::size_t k = order.size() > 20 ? order.size() - 20 : 0;
                 k < order.size(); ++k) {
                found |= order[k] == a;
            }
            violations += !found;
        }
    }
    EXPECT_GT(reuses, 5000);
    EXPECT_EQ(violations, 0);
}

TEST(FieldPcs, EachFieldHasItsOwnPc)
{
    WorkloadSpec w;
    w.name = "fields";
    w.memFraction = 1.0;
    w.branchFraction = 0.0;
    StreamSpec s;
    s.regionBytes = 1 << 22;
    s.stepBytes = 256;
    s.pattern = StreamPattern::Strided;
    s.accessesPerElement = 4;
    w.streams = {s};
    SyntheticTrace t(w, 9);

    // Group addresses by PC: each PC must observe a constant stride.
    std::map<Addr, std::vector<Addr>> by_pc;
    for (int i = 0; i < 4000; ++i) {
        const TraceInstr in = t.next();
        by_pc[in.pc].push_back(in.vaddr);
    }
    EXPECT_EQ(by_pc.size(), 4u);
    for (const auto &[pc, addrs] : by_pc) {
        ASSERT_GT(addrs.size(), 10u);
        const std::int64_t stride =
            static_cast<std::int64_t>(addrs[1]) -
            static_cast<std::int64_t>(addrs[0]);
        EXPECT_EQ(stride, 256);
        for (std::size_t k = 2; k < addrs.size(); ++k) {
            const std::int64_t d =
                static_cast<std::int64_t>(addrs[k]) -
                static_cast<std::int64_t>(addrs[k - 1]);
            if (d != stride)
                break; // region wrap allowed once
        }
    }
}

TEST(FieldPcs, ReuseAccessesUseSeparatePcRange)
{
    WorkloadSpec w;
    w.name = "reusepc";
    w.memFraction = 1.0;
    w.branchFraction = 0.0;
    StreamSpec s;
    s.regionBytes = 1 << 22;
    s.stepBytes = 128;
    s.pattern = StreamPattern::Strided;
    s.accessesPerElement = 2;
    s.reuseFraction = 0.4;
    w.streams = {s};
    SyntheticTrace t(w, 9);

    std::set<Addr> pcs;
    for (int i = 0; i < 10000; ++i)
        pcs.insert(t.next().pc);
    // 2 stream-field PCs plus up to 8 reuse-field PCs (offset 0x800).
    int reuse_pcs = 0;
    for (const Addr pc : pcs)
        reuse_pcs += (pc & 0x800) != 0;
    EXPECT_GT(reuse_pcs, 0) << "reuse accesses must not share stream PCs";
    EXPECT_LE(pcs.size() - static_cast<std::size_t>(reuse_pcs), 2u);
}

TEST(SubElementAccesses, StayWithinElementLine)
{
    WorkloadSpec w;
    w.name = "sub";
    w.memFraction = 1.0;
    w.branchFraction = 0.0;
    StreamSpec s;
    s.regionBytes = 1 << 22;
    s.stepBytes = 512;
    s.pattern = StreamPattern::Strided;
    s.accessesPerElement = 8;
    w.streams = {s};
    SyntheticTrace t(w, 9);

    // 8 consecutive accesses share the element's first line.
    for (int e = 0; e < 100; ++e) {
        const LineAddr first = lineOf(t.next().vaddr);
        for (int j = 1; j < 8; ++j)
            EXPECT_EQ(lineOf(t.next().vaddr), first);
    }
}

} // namespace
} // namespace bop
