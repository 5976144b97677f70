/**
 * @file
 * perfbench_cal: a fixed host-speed reference kernel.
 *
 *     perfbench_cal <threads> <iterations>
 *
 * Each thread models a 16-way, 4 MB set-associative tag array with
 * age-based LRU under a mixed strided/random line stream — integer,
 * branchy and cache-missing work like the simulator's own inner loops,
 * but code that no change to the simulator touches. Prints the
 * median per-thread time in seconds. run.py runs it between measured
 * rounds and scales host times by reference / measured, so host speed
 * drift cancels out of the reported metrics.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

namespace
{

double
kernel(long iterations, std::uint64_t seed, std::uint64_t &hits)
{
    constexpr std::size_t sets = 1 << 15;
    constexpr unsigned ways = 16;
    std::vector<std::uint64_t> tags(sets * ways, ~0ull);
    std::vector<std::uint8_t> age(sets * ways, 0);
    std::uint64_t x = seed | 1;
    std::uint64_t stride = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (long i = 0; i < iterations; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::uint64_t line = (x & 3)
                                       ? ((stride += 1 + (x >> 62)) & 0xfffff)
                                       : ((x >> 20) & 0xfffff);
        const std::size_t set = (line ^ (line >> 15)) & (sets - 1);
        std::uint64_t *t = &tags[set * ways];
        std::uint8_t *a = &age[set * ways];
        unsigned hit = ways;
        unsigned victim = 0;
        for (unsigned w = 0; w < ways; ++w) {
            if (t[w] == line)
                hit = w;
            if (a[w] > a[victim])
                victim = w;
        }
        if (hit < ways) {
            ++hits;
            for (unsigned w = 0; w < ways; ++w) {
                if (a[w] < a[hit])
                    ++a[w];
            }
            a[hit] = 0;
        } else {
            for (unsigned w = 0; w < ways; ++w) {
                if (a[w] < 255)
                    ++a[w];
            }
            t[victim] = line;
            a[victim] = 0;
        }
    }
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3) {
        std::fprintf(stderr, "usage: %s <threads> <iterations>\n", argv[0]);
        return 2;
    }
    const int threads = std::max(1, std::atoi(argv[1]));
    const long iterations = std::max(1L, std::atol(argv[2]));
    std::vector<double> secs(static_cast<std::size_t>(threads));
    std::vector<std::uint64_t> hits(static_cast<std::size_t>(threads));
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        const auto i = static_cast<std::size_t>(t);
        pool.emplace_back([&, i] {
            secs[i] = kernel(iterations, 88172645463325252ull + i, hits[i]);
        });
    }
    for (std::thread &th : pool)
        th.join();
    std::sort(secs.begin(), secs.end());
    std::printf("%.9f %llu\n", secs[secs.size() / 2],
                static_cast<unsigned long long>(hits[0]));
    return 0;
}
