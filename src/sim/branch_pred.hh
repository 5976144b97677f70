/**
 * @file
 * Scaled-down TAGE conditional branch predictor.
 *
 * The paper's baseline core uses a 31KB TAGE (Table 1, [Seznec &
 * Michaud, JILP'06]). The simulator only needs branch outcomes to decide
 * whether dispatch stalls for the redirect penalty, so this is a compact
 * TAGE: a bimodal base predictor plus four partially-tagged tables with
 * geometrically increasing history lengths, usefulness counters, and
 * standard TAGE allocation on mispredictions. It captures the property
 * that matters for the workload model: loop/periodic patterns predict
 * almost perfectly, biased random branches mispredict at min(p, 1-p).
 */

#ifndef BOP_SIM_BRANCH_PRED_HH
#define BOP_SIM_BRANCH_PRED_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace bop
{

/** Compact TAGE predictor. */
class TagePredictor
{
  public:
    explicit TagePredictor(std::uint64_t seed = 0x7a6e);

    /**
     * Predict the direction of the conditional branch at @p pc. Must be
     * followed by update() for the same branch before the next predict.
     */
    bool predict(Addr pc);

    /** Train with the actual outcome and update global history. */
    void update(Addr pc, bool taken);

    // -- introspection ----------------------------------------------------
    std::uint64_t predictions() const { return numPredictions; }
    std::uint64_t mispredictions() const { return numMispredictions; }

    /**
     * Checkpoint tables, global history, the allocation RNG and the
     * predict()->update() hand-off state (a save can land between the
     * two when a branch is in flight).
     */
    void
    serialize(Serializer &s)
    {
        s.valueVecExact(bimodal, "TAGE bimodal table");
        for (auto &table : tables) {
            s.seqExact(table, [](Serializer &sr, TaggedEntry &e) {
                sr.value(e.tag);
                sr.value(e.ctr);
                sr.value(e.useful);
            }, "TAGE tagged table");
        }
        s.value(ghist);
        rng.serialize(s);
        s.value(providerTable);
        s.value(altTable);
        s.value(providerIndex);
        s.value(lastPrediction);
        s.value(altPrediction);
        s.value(lastPc);
        s.value(numPredictions);
        s.value(numMispredictions);
    }

  private:
    static constexpr int numTables = 4;          ///< tagged tables
    static constexpr unsigned tableBits = 10;    ///< 1K entries each
    static constexpr unsigned tagBits = 9;
    static constexpr unsigned bimodalBits = 12;  ///< 4K-entry base
    static constexpr int historyLengths[numTables] = {4, 8, 16, 32};

    struct TaggedEntry
    {
        std::uint16_t tag = 0;
        std::int8_t ctr = 0;   ///< signed 3-bit: taken if >= 0
        std::uint8_t useful = 0;
    };

    unsigned tableIndex(Addr pc, int table) const;
    std::uint16_t tableTag(Addr pc, int table) const;
    std::uint64_t foldHistory(int length, unsigned width) const;

    std::vector<std::int8_t> bimodal;            ///< 2-bit counters
    std::vector<TaggedEntry> tables[numTables];
    std::uint64_t ghist = 0;
    Rng rng;

    // State captured by predict() for the following update().
    int providerTable = -1;      ///< -1: bimodal provided
    int altTable = -1;
    unsigned providerIndex = 0;
    bool lastPrediction = false;
    bool altPrediction = false;
    Addr lastPc = 0;

    std::uint64_t numPredictions = 0;
    std::uint64_t numMispredictions = 0;
};

} // namespace bop

#endif // BOP_SIM_BRANCH_PRED_HH
