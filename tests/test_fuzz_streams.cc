/**
 * @file
 * Randomised stress tests: adversarial access streams driven straight
 * into each prefetcher model (no simulator in the loop, so millions of
 * events are cheap), checking the structural invariants every L2
 * prefetcher must uphold (paper Sec. 5.6):
 *
 *   - candidates never cross the page of the triggering access;
 *   - candidates are valid line addresses (no wraparound);
 *   - bounded issue rate per access;
 *   - no crashes/hangs on pathological patterns (page-boundary
 *     ping-pong, aliasing storms, monotone jumps, random noise).
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hh"
#include "core/best_offset.hh"
#include "core/offset_list.hh"
#include "prefetch/fdp.hh"
#include "prefetch/ghb.hh"
#include "prefetch/fixed_offset.hh"
#include "prefetch/l2_prefetcher.hh"
#include "prefetch/sandbox.hh"
#include "prefetch/stream.hh"
#include "prefetch/stream_buffer.hh"

namespace bop
{
namespace
{

/** Build every prefetcher in the zoo for @p page. */
std::vector<std::unique_ptr<L2Prefetcher>>
makeZoo(PageSize page)
{
    std::vector<std::unique_ptr<L2Prefetcher>> zoo;
    zoo.push_back(std::make_unique<NextLinePrefetcher>(page));
    zoo.push_back(std::make_unique<FixedOffsetPrefetcher>(page, 7));
    zoo.push_back(std::make_unique<BestOffsetPrefetcher>(page));
    {
        BoConfig cov;
        cov.coverageWeight = 1;
        cov.adaptiveBadScore = true;
        zoo.push_back(std::make_unique<BestOffsetPrefetcher>(page, cov));
    }
    zoo.push_back(
        std::make_unique<BestOffsetPrefetcher>(page, dpc2BoConfig()));
    zoo.push_back(std::make_unique<SandboxPrefetcher>(
        page, makeOffsetList()));
    zoo.push_back(std::make_unique<StreamPrefetcher>(page));
    zoo.push_back(std::make_unique<StreamBufferPrefetcher>(page));
    zoo.push_back(std::make_unique<FdpPrefetcher>(page));
    zoo.push_back(std::make_unique<GhbAcdcPrefetcher>(page));
    return zoo;
}

/** Drive @p lines through @p pf, checking invariants per event. */
void
driveAndCheck(L2Prefetcher &pf, const std::vector<LineAddr> &lines,
              PageSize page)
{
    Rng rng(0xf22);
    std::vector<LineAddr> out;
    const LineAddr page_lines = pageLines(page);
    Cycle now = 0;

    for (const LineAddr x : lines) {
        out.clear();
        const std::uint64_t r = rng.next();
        const bool miss = (r & 3) != 0;         // 75% misses
        const bool pref_hit = !miss && (r & 4); // some prefetched hits
        now += 1 + (r % 7);
        pf.onAccess({x, miss, pref_hit, now}, out);

        EXPECT_LE(out.size(), 8u)
            << pf.name() << ": unbounded issue burst";
        for (const LineAddr t : out) {
            EXPECT_EQ(t / page_lines, x / page_lines)
                << pf.name() << ": crossed page at line " << x;
        }

        // Random feedback keeps the feedback-driven models exercised.
        if (!out.empty() && (r & 8))
            pf.onFill({out.front(), true, now + 20});
        if (r % 13 == 0)
            pf.onEvict({x ^ (r & 0xff), (r & 16) != 0, (r & 32) != 0,
                        now});
        if (r % 17 == 0)
            pf.onLatePromotion(x, now);
    }
}

std::vector<LineAddr>
randomLines(std::uint64_t seed, std::size_t n, LineAddr span)
{
    Rng rng(seed);
    std::vector<LineAddr> lines;
    lines.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        lines.push_back(rng.next() % span);
    return lines;
}

class FuzzZoo : public ::testing::TestWithParam<PageSize>
{
};

TEST_P(FuzzZoo, RandomNoise)
{
    for (auto &pf : makeZoo(GetParam()))
        driveAndCheck(*pf, randomLines(0xa1, 20000, 1u << 22),
                      GetParam());
}

TEST_P(FuzzZoo, PageBoundaryPingPong)
{
    // Alternate between the last line of page k and the first line of
    // page k+1 — the worst case for same-page filtering.
    const LineAddr pl = pageLines(GetParam());
    std::vector<LineAddr> lines;
    for (int k = 0; k < 4000; ++k) {
        const LineAddr page = static_cast<LineAddr>(k % 37);
        lines.push_back(page * pl + pl - 1);
        lines.push_back((page + 1) * pl);
    }
    for (auto &pf : makeZoo(GetParam()))
        driveAndCheck(*pf, lines, GetParam());
}

TEST_P(FuzzZoo, MonotoneJumps)
{
    // Large monotone jumps: stresses stream trackers and the GHB's
    // delta arithmetic without ever forming a prefetchable pattern.
    std::vector<LineAddr> lines;
    LineAddr x = 0;
    Rng rng(0xb2);
    for (int i = 0; i < 15000; ++i) {
        x += 1000 + (rng.next() % 5000);
        lines.push_back(x);
    }
    for (auto &pf : makeZoo(GetParam()))
        driveAndCheck(*pf, lines, GetParam());
}

TEST_P(FuzzZoo, AliasingStorm)
{
    // Many addresses sharing low bits (RR-table / Bloom / GHB-index
    // collision storm).
    std::vector<LineAddr> lines;
    Rng rng(0xc3);
    for (int i = 0; i < 15000; ++i)
        lines.push_back((rng.next() % 64) << 14);
    for (auto &pf : makeZoo(GetParam()))
        driveAndCheck(*pf, lines, GetParam());
}

TEST_P(FuzzZoo, InterleavedStrideSoup)
{
    // Eight interleaved strided streams with co-prime strides: a
    // realistic-but-hard pattern every model must survive (and the
    // offset prefetchers should even learn something from).
    static constexpr int strides[8] = {1, 2, 3, 5, 7, 11, 13, 17};
    std::vector<LineAddr> lines;
    LineAddr heads[8];
    for (int s = 0; s < 8; ++s)
        heads[s] = static_cast<LineAddr>(s) << 18;
    for (int i = 0; i < 15000; ++i) {
        const int s = i % 8;
        heads[s] += static_cast<LineAddr>(strides[s]);
        lines.push_back(heads[s]);
    }
    for (auto &pf : makeZoo(GetParam()))
        driveAndCheck(*pf, lines, GetParam());
}

TEST_P(FuzzZoo, NearZeroAddresses)
{
    // Accesses at the very bottom of the address space: X - d
    // underflow handling.
    std::vector<LineAddr> lines;
    Rng rng(0xd4);
    for (int i = 0; i < 10000; ++i)
        lines.push_back(rng.next() % 8);
    for (auto &pf : makeZoo(GetParam()))
        driveAndCheck(*pf, lines, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Pages, FuzzZoo,
                         ::testing::Values(PageSize::FourKB,
                                           PageSize::FourMB),
                         [](const auto &info) {
                             return info.param == PageSize::FourKB
                                        ? "page4KB"
                                        : "page4MB";
                         });

} // namespace
} // namespace bop
