/**
 * @file
 * Proportional counters (paper Sec. 5.2).
 *
 * A group of saturating counters where, whenever any counter reaches CMAX,
 * *all* counters in the group are halved simultaneously. This gives more
 * weight to recent events and lets ratio comparisons between counters
 * adapt to phase changes. The paper uses proportional counter groups in
 * three places: the 5P insertion-policy selector (five 12-bit counters),
 * the per-core L3 miss-rate estimator (four 12-bit counters), and the
 * memory-controller fairness scheduler (four 7-bit counters per channel).
 */

#ifndef BOP_COMMON_PROP_COUNTER_HH
#define BOP_COMMON_PROP_COUNTER_HH

#include <cstdint>
#include <vector>

#include "common/serializer.hh"

namespace bop
{

/** A group of proportional counters with simultaneous halving. */
class PropCounterGroup
{
  public:
    /**
     * @param num_counters number of counters in the group
     * @param bits counter width in bits; CMAX = 2^bits - 1
     */
    PropCounterGroup(std::size_t num_counters, unsigned bits)
        : counters(num_counters, 0),
          cmax((1u << bits) - 1)
    {
    }

    /**
     * Increment one counter; when it reaches CMAX all counters in the
     * group are halved at the same time.
     */
    void
    increment(std::size_t idx)
    {
        if (++counters[idx] >= cmax) {
            for (auto &c : counters)
                c >>= 1;
        }
    }

    /** Current value of a counter. */
    std::uint32_t
    value(std::size_t idx) const
    {
        return counters[idx];
    }

    /** Number of counters in the group. */
    std::size_t
    size() const
    {
        return counters.size();
    }

    /** Maximum value any counter currently holds. */
    std::uint32_t
    maxValue() const
    {
        std::uint32_t m = 0;
        for (auto c : counters)
            m = c > m ? c : m;
        return m;
    }

    /** Index of the counter with the smallest value (ties: lowest index). */
    std::size_t
    argMin() const
    {
        std::size_t best = 0;
        for (std::size_t i = 1; i < counters.size(); ++i) {
            if (counters[i] < counters[best])
                best = i;
        }
        return best;
    }

    /** The saturation threshold CMAX. */
    std::uint32_t
    max() const
    {
        return cmax;
    }

    /** Reset every counter to zero. */
    void
    reset()
    {
        for (auto &c : counters)
            c = 0;
    }

    /** Checkpoint the counter values (group size is configuration). */
    void
    serialize(Serializer &s)
    {
        s.valueVecExact(counters, "proportional counters");
    }

  private:
    std::vector<std::uint32_t> counters;
    std::uint32_t cmax;
};

} // namespace bop

#endif // BOP_COMMON_PROP_COUNTER_HH
