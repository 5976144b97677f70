/**
 * @file
 * Checkpoint container format constants and helpers.
 *
 * A checkpoint captures the complete warm microarchitectural state of
 * a System — caches with replacement metadata, MSHRs, fill/prefetch
 * queues, TLBs, prefetcher tables, DRAM controller state, core ROBs,
 * RNG streams and per-component clocks — so a measurement window can
 * resume from it bit-identically to an uninterrupted run.
 *
 * Container layout (everything little-endian; the normative byte-level
 * specification with a hexdump example is docs/CHECKPOINT_FORMAT.md):
 *
 *   offset 0   8 bytes  magic "BOPCKPT1"
 *   offset 8   u32      format version (currently 1)
 *   offset 12  u64      topology fingerprint
 *   offset 20  u32      section count
 *   then per section:
 *              4 bytes  ASCII section tag
 *              u64      payload length in bytes
 *              u32      CRC-32 of the payload
 *              ...      payload
 *
 * Sections (fixed order): "META" (save-time clock), "TRAC" (trace
 * source positions), "CORE" (per-core state), "HIER" (caches and
 * queues), "DRAM" (memory controllers). The header and every
 * section's CRC are validated before any section is applied, so a
 * corrupted checkpoint can never leave a System partially restored.
 *
 * The topology fingerprint hashes configFingerprint() plus the trace
 * names; it deliberately excludes the fast-forward toggle — a
 * host-side speed knob under the determinism contract — so a
 * checkpoint restores across it.
 *
 * The save/restore entry points are System member functions
 * (System::saveCheckpoint / restoreCheckpoint, declared in
 * sim/system.hh) whose definitions live in checkpoint.cc.
 */

#ifndef BOP_HARNESS_CHECKPOINT_HH
#define BOP_HARNESS_CHECKPOINT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace bop
{

class System;

/** Magic bytes at the start of every checkpoint. */
constexpr char checkpointMagic[8] = {'B', 'O', 'P', 'C', 'K', 'P',
                                     'T', '1'};

/** Current checkpoint format version. */
constexpr std::uint32_t checkpointVersion = 2;

/** Fixed header size: magic + version + fingerprint + section count. */
constexpr std::size_t checkpointHeaderBytes = 8 + 4 + 8 + 4;

/** Per-section header size: tag + payload length + CRC. */
constexpr std::size_t checkpointSectionHeaderBytes = 4 + 8 + 4;

/** Number of sections in a version-1 checkpoint. */
constexpr std::uint32_t checkpointSectionCount = 5;

/**
 * Topology fingerprint of a System: a splitmix64 chain over the
 * config fingerprint string and the trace names. Exposed for the
 * format tests.
 */
std::uint64_t checkpointFingerprint(System &sys);

/** Read the regular file @p path with one sized read; false when it
 *  cannot be opened as one. */
bool readFileBytes(const std::string &path,
                   std::vector<std::uint8_t> &bytes);

/**
 * Replace @p path with @p bytes atomically: a per-process tmp file,
 * fsynced, then renamed over @p path. On failure the tmp file is gone,
 * @p path is unchanged and std::runtime_error says how many bytes
 * landed. Injection point ckpt_write_short.
 */
void writeFileAtomic(const std::string &path,
                     const std::vector<std::uint8_t> &bytes);

/** The warm-prefix store entry for @p container under @p key: magic
 *  "BOPCACH1", u32 key length, the key, then the container. */
std::vector<std::uint8_t>
encodeCacheEntry(const std::string &key,
                 const std::vector<std::uint8_t> &container);

/** The container inside store entry @p entry, which must be keyed for
 *  @p key; throws CheckpointError naming the byte offset otherwise. */
std::vector<std::uint8_t>
decodeCacheEntry(std::vector<std::uint8_t> entry, const std::string &key);

} // namespace bop

#endif // BOP_HARNESS_CHECKPOINT_HH
