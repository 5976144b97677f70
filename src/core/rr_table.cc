#include "core/rr_table.hh"

#include <bit>
#include <cassert>

namespace bop
{

RrTable::RrTable(std::size_t entries, unsigned tag_bits, std::size_t banks)
    : indexBits(static_cast<unsigned>(std::countr_zero(entries / banks))),
      numTagBits(tag_bits),
      bankMask(banks - 1),
      tags(entries, 0),
      valid(entries, false)
{
    assert(entries >= 2 && (entries & (entries - 1)) == 0);
    assert(banks >= 1 && (banks & bankMask) == 0 && entries / banks >= 2);
    assert(tag_bits >= 1 && tag_bits <= 32);
}

std::size_t
RrTable::indexOf(LineAddr line) const
{
    // Paper Sec. 4.4 (generalised from the 256-entry example): XOR the
    // low index-width line-address bits with the next index-width bits,
    // within the bank that line bit 1 (and up) selects.
    const std::uint64_t mask = (1ull << indexBits) - 1;
    const std::size_t bank = (line >> 1) & bankMask;
    return (bank << indexBits) |
           static_cast<std::size_t>((line ^ (line >> indexBits)) & mask);
}

std::uint32_t
RrTable::tagOf(LineAddr line) const
{
    // Skip the low index bits, extract the next tag_bits bits.
    const std::uint64_t mask = (1ull << numTagBits) - 1;
    return static_cast<std::uint32_t>((line >> indexBits) & mask);
}

void
RrTable::insert(LineAddr line)
{
    const std::size_t idx = indexOf(line);
    tags[idx] = tagOf(line);
    valid[idx] = true;
}

bool
RrTable::contains(LineAddr line) const
{
    const std::size_t idx = indexOf(line);
    return valid[idx] && tags[idx] == tagOf(line);
}

void
RrTable::clear()
{
    valid.assign(valid.size(), false);
}

} // namespace bop
