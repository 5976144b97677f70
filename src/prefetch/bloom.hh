/**
 * @file
 * Bit-vector Bloom filter used by the Sandbox prefetcher's sandbox
 * (paper Sec. 6.3: 2048 bits, 3 hash functions).
 */

#ifndef BOP_PREFETCH_BLOOM_HH
#define BOP_PREFETCH_BLOOM_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"

namespace bop
{

/** Fixed-size Bloom filter over line addresses. */
class BloomFilter
{
  public:
    /**
     * @param bits   filter size in bits (power of two)
     * @param hashes number of hash functions
     * @param seed   seed differentiating the hash family
     */
    explicit BloomFilter(std::size_t bits = 2048, unsigned hashes = 3,
                         std::uint64_t seed = 0xb100f);

    /** Insert a line address. */
    void insert(LineAddr line);

    /** Membership test (may report false positives, never negatives). */
    bool maybeContains(LineAddr line) const;

    /** Clear all bits. */
    void clear();

    /** Number of set bits (tests/debug). */
    std::size_t popcount() const;

    std::size_t sizeBits() const { return bitCount; }

    /** Checkpoint the bit vector (geometry/seed are config-derived). */
    void
    serialize(Serializer &s)
    {
        s.valueVecExact(words, "Bloom filter words");
    }

  private:
    std::size_t indexOf(LineAddr line, unsigned k) const;

    std::size_t bitCount;
    unsigned numHashes;
    std::uint64_t seed;
    std::vector<std::uint64_t> words;
};

} // namespace bop

#endif // BOP_PREFETCH_BLOOM_HH
