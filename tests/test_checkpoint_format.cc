/**
 * @file
 * Checkpoint container format tests: the adversarial half of the
 * battery. Every malformed checkpoint — truncated at any boundary,
 * bit-flipped anywhere, version-skewed, fingerprint-mismatched — must
 * be rejected with a CheckpointError whose message names the
 * offending byte offset, never a crash and never a silent partial
 * restore (a failed validation leaves the target System untouched and
 * still usable).
 *
 * The checked-in golden fixture tests/data/smoke.ckpt pins the
 * on-disk format itself: it must keep restoring (and re-saving
 * byte-identically) until the format version is deliberately bumped.
 * Regenerate it after an intentional format change with
 *   BOP_WRITE_FIXTURE=1 ./test_checkpoint_format
 * and re-read docs/CHECKPOINT_FORMAT.md for what must change with it.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/serializer.hh"
#include "harness/checkpoint.hh"
#include "harness/experiment.hh"
#include "sim/system.hh"

namespace bop
{
namespace
{

const char *const kFixturePath = BOP_TEST_DATA_DIR "/smoke.ckpt";
const char *const kFixtureBench = "429.mcf";

/**
 * The fixture's configuration: the default topology with the caches
 * shrunk so the checked-in checkpoint stays tens of kilobytes. Any
 * change here invalidates tests/data/smoke.ckpt: the topology
 * fingerprint covers the prefetcher and seed, and the loaders' capacity
 * checks refuse other cache sizes (the fingerprint does not cover
 * cache geometry).
 */
SystemConfig
fixtureConfig()
{
    SystemConfig cfg;
    cfg.l2Prefetcher = L2PrefetcherKind::BestOffset;
    cfg.caches.dl1Bytes = 4 * 1024;
    cfg.caches.l2Bytes = 16 * 1024;
    cfg.caches.l3Bytes = 128 * 1024;
    cfg.seed = 7;
    return cfg;
}

/** Construct the fixture System in place (System is not movable). */
std::unique_ptr<System>
fixtureSystem()
{
    const SystemConfig cfg = fixtureConfig();
    return std::make_unique<System>(cfg,
                                    makeTraces(kFixtureBench, cfg));
}

/** Warm fixture bytes, regenerated in-process (not from disk). */
const std::vector<std::uint8_t> &
fixtureBytes()
{
    static const std::vector<std::uint8_t> bytes = [] {
        auto sys = fixtureSystem();
        sys->warmup(600);
        return sys->saveCheckpointBytes();
    }();
    return bytes;
}

/** Expect a restore of @p bytes to throw, naming a byte offset. */
void
expectRejected(System &target, const std::vector<std::uint8_t> &bytes,
               const std::string &label,
               const std::string &expect_substring = "")
{
    try {
        target.restoreCheckpointBytes(bytes);
        FAIL() << label << ": malformed checkpoint restored silently";
    } catch (const CheckpointError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("byte offset"), std::string::npos)
            << label << ": diagnostic must name the byte: " << what;
        EXPECT_LE(e.byteOffset(), bytes.size()) << label;
        if (!expect_substring.empty()) {
            EXPECT_NE(what.find(expect_substring), std::string::npos)
                << label << ": " << what;
        }
    }
    // Never any other exception type, never a crash: anything else
    // propagates out of the try and fails the test.
}

/** Byte offsets of every section boundary (header ends, payload ends). */
std::vector<std::size_t>
sectionBoundaries(const std::vector<std::uint8_t> &bytes)
{
    std::vector<std::size_t> cuts = {0, checkpointHeaderBytes};
    std::size_t pos = checkpointHeaderBytes;
    for (unsigned i = 0; i < checkpointSectionCount; ++i) {
        std::uint64_t len = 0;
        for (int b = 0; b < 8; ++b)
            len |= static_cast<std::uint64_t>(bytes[pos + 4 +
                                                    static_cast<std::size_t>(
                                                        b)])
                   << (8 * b);
        cuts.push_back(pos + checkpointSectionHeaderBytes);
        pos += checkpointSectionHeaderBytes +
               static_cast<std::size_t>(len);
        cuts.push_back(pos);
    }
    EXPECT_EQ(pos, bytes.size()) << "boundary walk must span the file";
    return cuts;
}

TEST(CheckpointFormat, HeaderFieldsRejectedAtTheirOffsets)
{
    const std::vector<std::uint8_t> &good = fixtureBytes();
    auto target_ptr = fixtureSystem();
    System &target = *target_ptr;

    { // flipped magic -> offset 0
        std::vector<std::uint8_t> bad = good;
        bad[0] ^= 0xff;
        expectRejected(target, bad, "magic", "magic");
    }
    { // future format version -> offset 8
        std::vector<std::uint8_t> bad = good;
        bad[8] += 1;
        try {
            target.restoreCheckpointBytes(bad);
            FAIL() << "version skew restored silently";
        } catch (const CheckpointError &e) {
            EXPECT_EQ(e.byteOffset(), 8u);
            EXPECT_NE(std::string(e.what()).find("version"),
                      std::string::npos)
                << e.what();
        }
    }
    { // version-1 file (banked L3 in HIER) -> offset 8
        std::vector<std::uint8_t> bad = good;
        bad[8] = 1;
        bad[9] = bad[10] = bad[11] = 0;
        try {
            target.restoreCheckpointBytes(bad);
            FAIL() << "version-1 checkpoint restored silently";
        } catch (const CheckpointError &e) {
            EXPECT_EQ(e.byteOffset(), 8u);
            EXPECT_NE(std::string(e.what()).find("version 1"),
                      std::string::npos)
                << e.what();
        }
    }
    { // flipped topology fingerprint -> offset 12
        std::vector<std::uint8_t> bad = good;
        bad[12] ^= 0x01;
        try {
            target.restoreCheckpointBytes(bad);
            FAIL() << "fingerprint mismatch restored silently";
        } catch (const CheckpointError &e) {
            EXPECT_EQ(e.byteOffset(), 12u);
            EXPECT_NE(std::string(e.what()).find("fingerprint"),
                      std::string::npos)
                << e.what();
        }
    }
    { // wrong section count -> offset 20
        std::vector<std::uint8_t> bad = good;
        bad[20] = 99;
        try {
            target.restoreCheckpointBytes(bad);
            FAIL() << "bad section count restored silently";
        } catch (const CheckpointError &e) {
            EXPECT_EQ(e.byteOffset(), 20u);
        }
    }
    { // bad section tag -> offset of that tag
        std::vector<std::uint8_t> bad = good;
        bad[checkpointHeaderBytes] ^= 0x20; // "META" -> "mETA"
        try {
            target.restoreCheckpointBytes(bad);
            FAIL() << "bad section tag restored silently";
        } catch (const CheckpointError &e) {
            EXPECT_EQ(e.byteOffset(), checkpointHeaderBytes);
            EXPECT_NE(std::string(e.what()).find("META"),
                      std::string::npos)
                << e.what();
        }
    }

    // After all those refusals the System is untouched and the
    // pristine bytes still restore: no partial state ever leaked.
    EXPECT_EQ(target.currentCycle(), 0u);
    target.restoreCheckpointBytes(good);
    EXPECT_GT(target.currentCycle(), 0u);
}

TEST(CheckpointFormat, TruncationAtEveryBoundaryRejected)
{
    const std::vector<std::uint8_t> &good = fixtureBytes();
    auto target_ptr = fixtureSystem();
    System &target = *target_ptr;

    // Every section boundary, every byte of the fixed header, plus a
    // coarse stride through the payloads.
    std::vector<std::size_t> cuts = sectionBoundaries(good);
    for (std::size_t i = 0; i <= checkpointHeaderBytes; ++i)
        cuts.push_back(i);
    for (std::size_t i = 0; i < good.size(); i += 997)
        cuts.push_back(i);
    // One past each boundary too (cuts mid-section-header).
    const std::size_t n_cuts = cuts.size();
    for (std::size_t i = 0; i < n_cuts; ++i) {
        if (cuts[i] + 1 < good.size())
            cuts.push_back(cuts[i] + 1);
    }

    for (const std::size_t cut : cuts) {
        if (cut >= good.size())
            continue;
        const std::vector<std::uint8_t> truncated(good.begin(),
                                                  good.begin() +
                                                      static_cast<long>(
                                                          cut));
        expectRejected(target, truncated,
                       "truncated to " + std::to_string(cut));
    }

    // Trailing garbage is as invalid as missing bytes.
    std::vector<std::uint8_t> padded = good;
    padded.push_back(0);
    expectRejected(target, padded, "one trailing byte", "trailing");

    target.restoreCheckpointBytes(good);
    EXPECT_GT(target.currentCycle(), 0u);
}

TEST(CheckpointFormat, PayloadCorruptionCaughtByCrc)
{
    const std::vector<std::uint8_t> &good = fixtureBytes();
    auto target_ptr = fixtureSystem();
    System &target = *target_ptr;

    // Flip one byte in the middle of each section's payload: the
    // section CRC must catch it before anything is applied.
    const std::vector<std::size_t> cuts = sectionBoundaries(good);
    for (unsigned i = 0; i < checkpointSectionCount; ++i) {
        const std::size_t begin = cuts[2 + 2 * i];
        const std::size_t end = cuts[3 + 2 * i];
        if (begin == end)
            continue; // empty payload has no byte to flip
        std::vector<std::uint8_t> bad = good;
        bad[begin + (end - begin) / 2] ^= 0x40;
        expectRejected(target, bad, "section " + std::to_string(i),
                       "CRC");
    }

    target.restoreCheckpointBytes(good);
    EXPECT_GT(target.currentCycle(), 0u);
}

TEST(CheckpointFormat, RandomByteFlipFuzzNeverRestoresSilently)
{
    // Seeded single- and multi-byte flips anywhere in the file: every
    // mutant must be rejected with an offset-carrying diagnostic (the
    // header fields are each validated, and everything else is under
    // a section CRC), and the target must stay usable throughout.
    const std::vector<std::uint8_t> &good = fixtureBytes();
    auto target_ptr = fixtureSystem();
    System &target = *target_ptr;
    Rng rng(20260808);

    for (int iter = 0; iter < 300; ++iter) {
        std::vector<std::uint8_t> bad = good;
        const int flips = 1 + static_cast<int>(rng.below(4));
        for (int f = 0; f < flips; ++f) {
            const std::size_t at =
                static_cast<std::size_t>(rng.below(bad.size()));
            std::uint8_t bit = static_cast<std::uint8_t>(
                1u << rng.below(8));
            bad[at] ^= bit;
        }
        if (bad == good)
            continue; // flips cancelled out
        expectRejected(target, bad,
                       "fuzz iteration " + std::to_string(iter));
    }

    target.restoreCheckpointBytes(good);
    EXPECT_GT(target.currentCycle(), 0u);
}

TEST(CheckpointFormat, EmptyAndTinyInputsRejected)
{
    auto target_ptr = fixtureSystem();
    System &target = *target_ptr;
    expectRejected(target, {}, "empty", "truncated");
    expectRejected(target, {'B', 'O', 'P'}, "3 bytes", "truncated");
    // A file that is only a valid header still misses its sections.
    std::vector<std::uint8_t> header_only(
        fixtureBytes().begin(),
        fixtureBytes().begin() + checkpointHeaderBytes);
    expectRejected(target, header_only, "header only");
}

TEST(CheckpointFormat, GoldenFixtureRestoresAndResaves)
{
    // The format guard: the checked-in fixture must restore under
    // today's code and re-save byte-identically. If this fails after
    // an intentional format/topology change, bump checkpointVersion
    // (or regenerate with BOP_WRITE_FIXTURE=1) and update
    // docs/CHECKPOINT_FORMAT.md.
    if (std::getenv("BOP_WRITE_FIXTURE")) {
        const std::vector<std::uint8_t> &bytes = fixtureBytes();
        std::ofstream f(kFixturePath,
                        std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(f) << "cannot write " << kFixturePath;
        f.write(reinterpret_cast<const char *>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
        ASSERT_TRUE(f.good());
        GTEST_SKIP() << "fixture regenerated at " << kFixturePath;
    }

    std::ifstream f(kFixturePath, std::ios::binary);
    ASSERT_TRUE(f) << kFixturePath
                   << " missing - regenerate with BOP_WRITE_FIXTURE=1";
    const std::vector<std::uint8_t> on_disk(
        (std::istreambuf_iterator<char>(f)),
        std::istreambuf_iterator<char>());

    auto target_ptr = fixtureSystem();
    System &target = *target_ptr;
    target.restoreCheckpointBytes(on_disk);
    EXPECT_GT(target.currentCycle(), 0u);
    EXPECT_EQ(target.saveCheckpointBytes(), on_disk)
        << "restored fixture must re-save byte-identically";

    // And the restored state is semantically right: measuring from it
    // equals measuring from a fresh warmup (the fixture was saved at
    // 600 warmup instructions).
    const RunStats from_fixture = target.measure(2000);
    auto cold_ptr = fixtureSystem();
    System &cold = *cold_ptr;
    const RunStats cold_stats = cold.run(600, 2000);
    EXPECT_TRUE(from_fixture == cold_stats);
    EXPECT_EQ(target.currentCycle(), cold.currentCycle());
}

} // namespace
} // namespace bop
