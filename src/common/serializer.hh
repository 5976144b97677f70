/**
 * @file
 * State serialization visitor for checkpoint/restore.
 *
 * One Serializer instance walks a component's state in either
 * direction: in Save mode every visit appends little-endian bytes to
 * an output buffer, in Load mode the same visits read them back, so a
 * component writes exactly one `serialize(Serializer &)` method and
 * save/restore can never disagree about field order. Scalars are
 * fixed-width little-endian regardless of host; doubles travel as
 * their IEEE-754 bit pattern.
 *
 * Load mode is defensive: every read is bounds-checked, element
 * counts are checked before anything is resized (against a sanity
 * cap, a queue's capacity, or a fixed table's exact length), and
 * failures throw CheckpointError
 * carrying the absolute byte offset of the bad data (the caller
 * passes the payload's base offset within the checkpoint file), so a
 * truncated or corrupted checkpoint is rejected with a diagnostic
 * that names the byte, never a crash or a silent partial restore.
 *
 * The container format around these payloads (magic, version,
 * topology fingerprint, section framing, CRCs) lives in
 * src/harness/checkpoint.cc and is specified normatively in
 * docs/CHECKPOINT_FORMAT.md.
 */

#ifndef BOP_COMMON_SERIALIZER_HH
#define BOP_COMMON_SERIALIZER_HH

#include <cstdint>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace bop
{

/** CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected). */
std::uint32_t crc32(const std::uint8_t *data, std::size_t size);

/**
 * Checkpoint decode failure. The byte offset is absolute within the
 * checkpoint file (or byte buffer) being restored and is baked into
 * what() so every rejection names the offending byte.
 */
class CheckpointError : public std::runtime_error
{
  public:
    CheckpointError(const std::string &what, std::uint64_t byte_offset);

    std::uint64_t byteOffset() const { return offset; }

  private:
    std::uint64_t offset;
};

/** Bidirectional state visitor (see file comment). */
class Serializer
{
  public:
    /** Largest element count a Load-mode container visit accepts.
     *  Far above any real component (the L3 has ~2^17 lines) but far
     *  below anything that could OOM from a corrupted length. */
    static constexpr std::uint64_t maxElements = 1ull << 26;

    /** Save mode: visits append to @p out_buf. */
    explicit Serializer(std::vector<std::uint8_t> &out_buf)
        : out(&out_buf)
    {
    }

    /**
     * Load mode: visits read from @p payload. @p base_offset is the
     * absolute offset of payload[0] within the checkpoint file, used
     * to report error positions.
     */
    Serializer(const std::uint8_t *payload, std::size_t payload_size,
               std::uint64_t base_offset)
        : data(payload), size(payload_size), baseOffset(base_offset)
    {
    }

    bool saving() const { return out != nullptr; }
    bool loading() const { return out == nullptr; }

    /** Absolute byte offset of the next visit. */
    std::uint64_t
    offset() const
    {
        return baseOffset + (saving() ? out->size() : cursor);
    }

    /** Fixed-width little-endian scalar (integral, bool or enum). */
    template <typename T>
    void
    value(T &v)
    {
        static_assert(std::is_integral_v<T> || std::is_enum_v<T>,
                      "value() visits integral/enum scalars");
        if (saving())
            putBits(toBits(v), sizeof(T));
        else
            v = fromBits<T>(getBits(sizeof(T)));
    }

    /** Double as its IEEE-754 bit pattern (8 bytes LE). */
    void value(double &v);

    /**
     * Vector of scalars: u64 count, then the elements. A load refuses
     * a count above @p most, naming @p what, before it resizes @p v.
     */
    template <typename T>
    void
    valueVec(std::vector<T> &v, std::size_t most = maxElements,
             const std::string &what = "element count")
    {
        const std::size_t n = count(v.size(), 0, most, what);
        if (loading())
            v.resize(n);
        for (T &e : v)
            value(e);
    }

    /**
     * valueVec() for a vector whose length the live object fixes (a
     * table of configured geometry): the same bytes, but a load
     * refuses a count other than v.size() before it reads anything,
     * and never resizes.
     */
    template <typename T>
    void
    valueVecExact(std::vector<T> &v, const std::string &what)
    {
        count(v.size(), v.size(), v.size(), what);
        for (T &e : v)
            value(e);
    }

    /** std::vector<bool> of fixed length: u64 count, then one byte per
     *  element; a load refuses a count other than v.size(). */
    void boolVecExact(std::vector<bool> &v, const std::string &what);

    /** String: u64 length, then the bytes. */
    void str(std::string &s);

    /**
     * Container of objects: u64 count, then @p each(serializer, elem)
     * per element. Works for std::vector and std::deque; a load
     * refuses a count above @p most, naming @p what, then resizes the
     * container (new elements default-constructed).
     */
    template <typename C, typename F>
    void
    seq(C &c, F &&each, std::size_t most = maxElements,
        const std::string &what = "element count")
    {
        const std::size_t n = count(c.size(), 0, most, what);
        if (loading())
            c.resize(n);
        for (auto &e : c)
            each(*this, e);
    }

    /**
     * seq() for a container whose length the live object fixes: a
     * load refuses a count other than c.size() before it reads
     * anything, and never resizes, so each element keeps the fields
     * its constructor derived and @p each does not visit.
     */
    template <typename C, typename F>
    void
    seqExact(C &c, F &&each, const std::string &what)
    {
        count(c.size(), c.size(), c.size(), what);
        for (auto &e : c)
            each(*this, e);
    }

    /** Throw CheckpointError at the current offset. */
    [[noreturn]] void fail(const std::string &what) const;

    /**
     * Load mode: require that the payload was consumed exactly —
     * trailing bytes mean the writer and reader disagree about the
     * @p what structure, which must never pass silently.
     */
    void finish(const std::string &what) const;

  private:
    template <typename T>
    static std::uint64_t
    toBits(T v)
    {
        if constexpr (std::is_enum_v<T>) {
            return toBits(
                static_cast<std::underlying_type_t<T>>(v));
        } else if constexpr (std::is_same_v<T, bool>) {
            return v ? 1 : 0;
        } else {
            return static_cast<std::uint64_t>(
                static_cast<std::make_unsigned_t<T>>(v));
        }
    }

    template <typename T>
    static T
    fromBits(std::uint64_t bits)
    {
        if constexpr (std::is_enum_v<T>) {
            return static_cast<T>(
                fromBits<std::underlying_type_t<T>>(bits));
        } else if constexpr (std::is_same_v<T, bool>) {
            return bits != 0;
        } else {
            return static_cast<T>(
                static_cast<std::make_unsigned_t<T>>(bits));
        }
    }

    /**
     * Visit a container's u64 element count (@p live when saving). A
     * load refuses a count outside [@p least, @p most], naming
     * @p what, and returns the count read.
     */
    std::size_t count(std::size_t live, std::uint64_t least,
                      std::uint64_t most, const std::string &what);

    void putBits(std::uint64_t bits, std::size_t n);
    std::uint64_t getBits(std::size_t n);
    void need(std::size_t n) const;

    std::vector<std::uint8_t> *out = nullptr; ///< Save mode
    const std::uint8_t *data = nullptr;       ///< Load mode
    std::size_t size = 0;
    std::size_t cursor = 0;
    std::uint64_t baseOffset = 0;
};

} // namespace bop

#endif // BOP_COMMON_SERIALIZER_HH
