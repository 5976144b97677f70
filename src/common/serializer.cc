#include "common/serializer.hh"

#include <array>
#include <cstring>

namespace bop
{

namespace
{

std::array<std::uint32_t, 256>
makeCrcTable()
{
    std::array<std::uint32_t, 256> table{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        table[i] = c;
    }
    return table;
}

} // namespace

std::uint32_t
crc32(const std::uint8_t *data, std::size_t size)
{
    static const std::array<std::uint32_t, 256> table = makeCrcTable();
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i)
        c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

CheckpointError::CheckpointError(const std::string &what,
                                 std::uint64_t byte_offset)
    : std::runtime_error(what + " (byte offset " +
                         std::to_string(byte_offset) + ")"),
      offset(byte_offset)
{
}

void
Serializer::value(double &v)
{
    std::uint64_t bits;
    if (saving()) {
        static_assert(sizeof(double) == sizeof(std::uint64_t));
        std::memcpy(&bits, &v, sizeof bits);
        putBits(bits, sizeof bits);
    } else {
        bits = getBits(sizeof bits);
        std::memcpy(&v, &bits, sizeof v);
    }
}

void
Serializer::boolVecExact(std::vector<bool> &v, const std::string &what)
{
    count(v.size(), v.size(), v.size(), what);
    for (std::size_t i = 0; i < v.size(); ++i) {
        std::uint8_t b = v[i] ? 1 : 0;
        value(b);
        if (loading())
            v[i] = b != 0;
    }
}

void
Serializer::str(std::string &s)
{
    std::uint64_t n = s.size();
    value(n);
    if (loading()) {
        if (n > maxElements)
            fail("implausible string length " + std::to_string(n));
        need(static_cast<std::size_t>(n));
        s.assign(reinterpret_cast<const char *>(data + cursor),
                 static_cast<std::size_t>(n));
        cursor += static_cast<std::size_t>(n);
    } else {
        for (const char c : s)
            out->push_back(static_cast<std::uint8_t>(c));
    }
}

std::size_t
Serializer::count(std::size_t live, std::uint64_t least,
                  std::uint64_t most, const std::string &what)
{
    std::uint64_t n = live;
    value(n);
    if (loading() && (n < least || n > most))
        fail(what + ": " + std::to_string(n) + " stored, " +
             (least == most ? "expected " : "at most ") +
             std::to_string(most));
    return static_cast<std::size_t>(n);
}

void
Serializer::fail(const std::string &what) const
{
    throw CheckpointError(what, offset());
}

void
Serializer::finish(const std::string &what) const
{
    if (loading() && cursor != size) {
        throw CheckpointError(
            what + ": " + std::to_string(size - cursor) +
                " trailing byte(s) after the last field",
            baseOffset + cursor);
    }
}

void
Serializer::putBits(std::uint64_t bits, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        out->push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
}

std::uint64_t
Serializer::getBits(std::size_t n)
{
    need(n);
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < n; ++i)
        bits |= static_cast<std::uint64_t>(data[cursor + i]) << (8 * i);
    cursor += n;
    return bits;
}

void
Serializer::need(std::size_t n) const
{
    if (size - cursor < n) {
        throw CheckpointError(
            "truncated payload: need " + std::to_string(n) +
                " byte(s), have " + std::to_string(size - cursor),
            baseOffset + cursor);
    }
}

} // namespace bop
