/**
 * @file
 * Checkpoint round-trip helpers for component tests: save one
 * object's serialize() stream to bytes and load bytes into another.
 */

#ifndef BOP_TESTS_ROUND_TRIP_HH
#define BOP_TESTS_ROUND_TRIP_HH

#include <cstdint>
#include <vector>

#include "common/serializer.hh"

namespace bop
{

/** @p obj's checkpoint payload. */
template <typename T>
std::vector<std::uint8_t>
saveBytes(T &obj)
{
    std::vector<std::uint8_t> bytes;
    Serializer s(bytes);
    obj.serialize(s);
    return bytes;
}

/** Load @p bytes into @p obj, requiring every byte to be consumed. */
template <typename T>
void
loadBytes(T &obj, const std::vector<std::uint8_t> &bytes)
{
    Serializer s(bytes.data(), bytes.size(), 0);
    obj.serialize(s);
    s.finish("round trip");
}

} // namespace bop

#endif // BOP_TESTS_ROUND_TRIP_HH
