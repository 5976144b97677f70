/**
 * @file
 * Tests for the fill queue + CAM (the paper's L2/L3 MSHR replacement,
 * Sec. 5.4).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "cache/fill_queue.hh"
#include "common/rng.hh"
#include "common/serializer.hh"
#include "round_trip.hh"

namespace bop
{
namespace
{

TEST(FillQueue, AllocateFillPop)
{
    FillQueue fq("t", 4);
    ReqMeta meta;
    meta.core = 1;
    const auto id = fq.allocate(100, meta, false);
    EXPECT_EQ(fq.size(), 1u);
    EXPECT_FALSE(fq.popReady(10).has_value()) << "no data yet";
    fq.fillData(id, 5);
    const auto e = fq.popReady(10);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->line, 100u);
    EXPECT_EQ(e->meta.core, 1);
    EXPECT_EQ(fq.size(), 0u);
}

TEST(FillQueue, PopRespectsReadyCycle)
{
    FillQueue fq("t", 4);
    const auto id = fq.allocate(7, {}, false);
    fq.fillData(id, 100);
    EXPECT_FALSE(fq.popReady(99).has_value());
    EXPECT_TRUE(fq.popReady(100).has_value());
}

TEST(FillQueue, ReleaseFreesEntry)
{
    FillQueue fq("t", 2);
    const auto a = fq.allocate(1, {}, false);
    fq.allocate(2, {}, false);
    EXPECT_TRUE(fq.full());
    fq.release(a);
    EXPECT_FALSE(fq.full());
    EXPECT_EQ(fq.find(1), nullptr);
    EXPECT_NE(fq.find(2), nullptr);
}

TEST(FillQueue, CamFindsByLine)
{
    FillQueue fq("t", 4);
    fq.allocate(42, {}, true);
    FillQueueEntry *e = fq.find(42);
    ASSERT_NE(e, nullptr);
    EXPECT_TRUE(e->isPrefetch);
    EXPECT_EQ(fq.find(43), nullptr);
}

TEST(FillQueue, PromotionThroughCam)
{
    // The late-prefetch mechanism: a demand miss finds the in-flight
    // prefetch entry and promotes it in place.
    FillQueue fq("t", 4);
    ReqMeta meta;
    meta.wasL2Prefetch = true;
    const auto id = fq.allocateWithData(55, meta, true, 3);
    FillQueueEntry *e = fq.find(55);
    ASSERT_NE(e, nullptr);
    e->isPrefetch = false;
    e->meta.needL1 = true;
    e->meta.mshrId = 9;

    const auto popped = fq.popReady(3);
    ASSERT_TRUE(popped.has_value());
    EXPECT_FALSE(popped->isPrefetch);
    EXPECT_TRUE(popped->meta.needL1);
    EXPECT_EQ(popped->meta.mshrId, 9u);
    EXPECT_TRUE(popped->meta.wasL2Prefetch) << "history must survive";
    (void)id;
}

TEST(FillQueue, FifoDrainOrder)
{
    FillQueue fq("t", 4);
    fq.allocateWithData(1, {}, false, 0);
    fq.allocateWithData(2, {}, false, 0);
    fq.allocateWithData(3, {}, false, 0);
    EXPECT_EQ(fq.popReady(0)->line, 1u);
    EXPECT_EQ(fq.popReady(0)->line, 2u);
    EXPECT_EQ(fq.popReady(0)->line, 3u);
}

TEST(FillQueue, ReadyEntriesSkipWaitingHead)
{
    FillQueue fq("t", 4);
    fq.allocate(1, {}, false); // waiting, no data
    fq.allocateWithData(2, {}, false, 0);
    const auto e = fq.popReady(0);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->line, 2u);
    EXPECT_NE(fq.find(1), nullptr);
}

TEST(FillQueue, WaitingReserveThrottlesAllocations)
{
    FillQueue fq("t", 4);
    fq.allocate(1, {}, false);
    fq.allocate(2, {}, false);
    EXPECT_FALSE(fq.canAllocateWaiting())
        << "2 of 4 slots are reserved for returning data";
    EXPECT_FALSE(fq.full());
    fq.allocateWithData(3, {}, false, 0);
    fq.allocateWithData(4, {}, false, 0);
    EXPECT_TRUE(fq.full());
}

TEST(FillQueue, PeekThenRemove)
{
    FillQueue fq("t", 4);
    fq.allocateWithData(8, {}, false, 2);
    EXPECT_EQ(fq.peekReady(1), nullptr);
    FillQueueEntry *e = fq.peekReady(2);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->line, 8u);
    EXPECT_EQ(fq.size(), 1u) << "peek must not remove";
    fq.removeById(e->id);
    EXPECT_EQ(fq.size(), 0u);
}

TEST(FillQueue, IdsAreStableAcrossOtherReleases)
{
    FillQueue fq("t", 4);
    const auto a = fq.allocate(1, {}, false);
    const auto b = fq.allocate(2, {}, false);
    fq.release(a);
    fq.fillData(b, 7);
    EXPECT_EQ(fq.entry(b).line, 2u);
    EXPECT_TRUE(fq.entry(b).hasData);
}

// ---------------------------------------------------------------------------
// Randomized equivalence against a naive reference queue
// ---------------------------------------------------------------------------

/**
 * The fill queue's contract written the plain way: a slot array
 * searched front to back, a list of live slots in allocation order,
 * and nothing cached.
 */
class RefFillQueue
{
  public:
    explicit RefFillQueue(std::size_t cap) : slots(cap) {}

    std::size_t size() const { return order.size(); }
    bool full() const { return order.size() >= slots.size(); }

    std::uint32_t
    allocate(LineAddr line, bool is_prefetch)
    {
        for (std::size_t s = 0; s < slots.size(); ++s) {
            if (!slots[s].valid) {
                slots[s] = FillQueueEntry{};
                slots[s].valid = true;
                slots[s].line = line;
                slots[s].isPrefetch = is_prefetch;
                slots[s].id = nextId++;
                order.push_back(s);
                return slots[s].id;
            }
        }
        throw std::logic_error("reference queue full");
    }

    void
    release(std::uint32_t id)
    {
        const std::size_t s = slotOf(id);
        slots[s].valid = false;
        order.erase(std::find(order.begin(), order.end(), s));
    }

    void
    fillData(std::uint32_t id, Cycle at)
    {
        const std::size_t s = slotOf(id);
        slots[s].hasData = true;
        slots[s].readyAt = at;
    }

    /** Id of the lowest-index slot holding @p line, 0 if none. */
    std::uint32_t
    find(LineAddr line) const
    {
        for (const FillQueueEntry &e : slots) {
            if (e.valid && e.line == line)
                return e.id;
        }
        return 0;
    }

    /** Id of the oldest entry ready at @p now, 0 if none. */
    std::uint32_t
    peekReady(Cycle now) const
    {
        for (const std::size_t s : order) {
            if (slots[s].hasData && slots[s].readyAt <= now)
                return slots[s].id;
        }
        return 0;
    }

    Cycle
    minReadyAt() const
    {
        Cycle m = neverCycle;
        for (const std::size_t s : order) {
            if (slots[s].hasData)
                m = std::min(m, slots[s].readyAt);
        }
        return m;
    }

    const FillQueueEntry &entryOf(std::uint32_t id) const
    {
        return slots[slotOf(id)];
    }

    std::vector<std::uint32_t>
    liveIds() const
    {
        std::vector<std::uint32_t> ids;
        for (const std::size_t s : order)
            ids.push_back(slots[s].id);
        return ids;
    }

  private:
    std::size_t
    slotOf(std::uint32_t id) const
    {
        for (const std::size_t s : order) {
            if (slots[s].id == id)
                return s;
        }
        throw std::logic_error("reference queue: unknown id");
    }

    std::vector<FillQueueEntry> slots;
    std::vector<std::size_t> order;
    std::uint32_t nextId = 1;
};

std::uint32_t
idOrZero(const FillQueueEntry *e)
{
    return e ? e->id : 0;
}

TEST(FillQueue, RandomizedMatchesReference)
{
    // Few distinct lines over many slots, so duplicates are common and
    // find() must pick the lowest-index slot among them, as the L3
    // stage needs when two cores fetch the same line.
    constexpr std::size_t cap = 12;
    constexpr LineAddr lines = 6;
    Rng rng(20);
    for (int trial = 0; trial < 20; ++trial) {
        FillQueue fq("t", cap);
        RefFillQueue ref(cap);
        Cycle now = 0;
        int duplicate_hits = 0;
        for (int step = 0; step < 2000; ++step) {
            const std::vector<std::uint32_t> live = ref.liveIds();
            const auto pick_live = [&] {
                return live[rng.below(static_cast<std::uint32_t>(
                    live.size()))];
            };
            const LineAddr line = rng.below(lines);
            switch (rng.below(7)) {
              case 0:
              case 1:
                if (!ref.full()) {
                    const bool pf = rng.below(2) == 0;
                    ReqMeta meta;
                    meta.core = static_cast<CoreId>(line % 4);
                    EXPECT_EQ(fq.allocate(line, meta, pf),
                              ref.allocate(line, pf));
                }
                break;
              case 2:
                if (!ref.full()) {
                    const Cycle at = now + rng.below(8);
                    const std::uint32_t id = ref.allocate(line, false);
                    ref.fillData(id, at);
                    EXPECT_EQ(fq.allocateWithData(line, {}, false, at),
                              id);
                }
                break;
              case 3:
                if (!live.empty()) {
                    const std::uint32_t id = pick_live();
                    fq.release(id);
                    ref.release(id);
                }
                break;
              case 4:
                // Waiting entries get their data, and entries that
                // already carry data may have it moved (earlier or
                // later), which minReadyAt() must follow.
                if (!live.empty()) {
                    const std::uint32_t id = pick_live();
                    const Cycle at = now + rng.below(8);
                    fq.fillData(id, at);
                    ref.fillData(id, at);
                }
                break;
              case 5: {
                const std::uint32_t want = ref.peekReady(now);
                const auto got = fq.popReady(now);
                ASSERT_EQ(got.has_value(), want != 0);
                if (got) {
                    EXPECT_EQ(got->id, want);
                    EXPECT_EQ(got->line, ref.entryOf(want).line);
                    ref.release(want);
                }
                break;
              }
              default:
                ++now;
                break;
            }

            ASSERT_EQ(fq.size(), ref.size()) << "step " << step;
            EXPECT_EQ(fq.full(), ref.full());
            EXPECT_EQ(fq.minReadyAt(), ref.minReadyAt());
            EXPECT_EQ(idOrZero(fq.peekReady(now)), ref.peekReady(now));
            for (LineAddr l = 0; l <= lines; ++l) {
                const std::uint32_t want = ref.find(l);
                const FillQueueEntry *got = fq.find(l);
                ASSERT_EQ(idOrZero(got), want)
                    << "line " << l << " step " << step;
                if (got) {
                    EXPECT_EQ(got->line, l);
                    EXPECT_EQ(got->isPrefetch,
                              ref.entryOf(want).isPrefetch);
                }
            }
            for (const std::uint32_t id : ref.liveIds()) {
                EXPECT_EQ(fq.entry(id).line, ref.entryOf(id).line);
                EXPECT_EQ(fq.entry(id).hasData, ref.entryOf(id).hasData);
            }
            const std::vector<std::uint32_t> now_live = ref.liveIds();
            for (LineAddr l = 0; l < lines; ++l) {
                int copies = 0;
                for (const std::uint32_t id : now_live)
                    copies += ref.entryOf(id).line == l;
                duplicate_hits += copies > 1;
            }
        }
        EXPECT_GT(duplicate_hits, 0) << "trial never held a duplicate";
    }
}

TEST(FillQueue, FindPrefersLowestSlotAmongDuplicates)
{
    FillQueue fq("t", 4);
    const auto a = fq.allocate(9, {}, false); // slot 0
    const auto b = fq.allocate(5, {}, true);  // slot 1
    const auto c = fq.allocate(5, {}, false); // slot 2
    EXPECT_EQ(fq.find(5)->id, b);
    fq.release(a);
    const auto d = fq.allocate(5, {}, false); // reuses slot 0
    EXPECT_EQ(fq.find(5)->id, d) << "slot order, not allocation order";
    fq.release(d);
    fq.release(b);
    EXPECT_EQ(fq.find(5)->id, c);
    EXPECT_EQ(fq.find(9), nullptr);
}

// ---------------------------------------------------------------------------
// Content epoch
// ---------------------------------------------------------------------------

TEST(FillQueue, EpochAdvancesOnlyOnContentChanges)
{
    FillQueue fq("t", 4);
    std::uint64_t e = fq.epoch();
    const auto advanced = [&] {
        const bool moved = fq.epoch() > e;
        e = fq.epoch();
        return moved;
    };

    const auto a = fq.allocate(1, {}, true);
    EXPECT_TRUE(advanced()) << "allocate";
    const auto b = fq.allocateWithData(2, {}, false, 5);
    EXPECT_TRUE(advanced()) << "allocateWithData";
    const auto c = fq.allocate(3, {}, false);
    EXPECT_TRUE(advanced());

    fq.fillData(a, 3);
    EXPECT_FALSE(advanced()) << "fillData changes no line";
    EXPECT_NE(fq.find(1), nullptr);
    EXPECT_EQ(fq.find(7), nullptr);
    EXPECT_FALSE(advanced()) << "find";
    EXPECT_NE(fq.peekReady(10), nullptr);
    EXPECT_EQ(fq.peekReady(0), nullptr);
    EXPECT_FALSE(advanced()) << "peekReady";
    fq.entry(a).meta.needL2 = true;
    fq.entry(a).isPrefetch = false;
    EXPECT_FALSE(advanced()) << "entry edits (promotion)";
    EXPECT_FALSE(fq.popReady(0).has_value());
    EXPECT_FALSE(advanced()) << "popReady with nothing ready";
    (void)fq.full();
    (void)fq.size();
    (void)fq.minReadyAt();
    (void)fq.canAllocateWaiting();
    EXPECT_FALSE(advanced()) << "queries";

    ASSERT_TRUE(fq.popReady(3).has_value());
    EXPECT_TRUE(advanced()) << "popReady";
    fq.release(c);
    EXPECT_TRUE(advanced()) << "release";
    fq.removeById(b);
    EXPECT_TRUE(advanced()) << "removeById";
    EXPECT_EQ(fq.size(), 0u);
}

// ---------------------------------------------------------------------------
// Checkpoint round trip
// ---------------------------------------------------------------------------

TEST(FillQueue, SerializeRoundTripFindsSameEntries)
{
    FillQueue fq("t", 6);
    ReqMeta meta;
    meta.core = 2;
    const auto a = fq.allocate(10, meta, true);
    const auto b = fq.allocateWithData(11, {}, false, 4);
    const auto c = fq.allocate(10, {}, false); // duplicate line
    const auto d = fq.allocate(12, {}, false);
    fq.release(a); // frees slot 0; line 10 now lives only in slot 2
    fq.fillData(d, 9);
    const std::vector<std::uint8_t> bytes = saveBytes(fq);

    FillQueue restored("t", 6);
    const std::uint64_t before = restored.epoch();
    loadBytes(restored, bytes);
    EXPECT_GT(restored.epoch(), before) << "a load changes the contents";

    // The occupancy counts and the min-ready gate are rebuilt.
    EXPECT_EQ(restored.size(), fq.size());
    EXPECT_EQ(restored.minReadyAt(), fq.minReadyAt());
    EXPECT_EQ(restored.minReadyAt(), 4u);
    EXPECT_EQ(restored.canAllocateWaiting(), fq.canAllocateWaiting());
    EXPECT_EQ(idOrZero(restored.peekReady(3)), 0u);
    EXPECT_EQ(idOrZero(restored.peekReady(9)), b);
    for (const LineAddr l : {10, 11, 12, 13})
        EXPECT_EQ(idOrZero(restored.find(l)), idOrZero(fq.find(l)))
            << "line " << l;
    for (const auto id : {b, c, d}) {
        EXPECT_EQ(restored.entry(id).line, fq.entry(id).line);
        EXPECT_EQ(restored.entry(id).hasData, fq.entry(id).hasData);
    }
    EXPECT_EQ(restored.find(10)->id, c);
    EXPECT_THROW(restored.entry(a), std::logic_error);
    EXPECT_EQ(saveBytes(restored), bytes) << "re-save is byte-identical";

    // The restored queue keeps working: the freed slot 0 is reused and
    // becomes the lowest-index match for a duplicate of line 10.
    const auto e = restored.allocate(10, {}, false);
    EXPECT_EQ(restored.find(10)->id, e);
    EXPECT_EQ(restored.popReady(4)->id, b);
}

/** Offset of the first 8-byte little-endian @p pattern in @p bytes. */
std::size_t
offsetOf(const std::vector<std::uint8_t> &bytes, std::uint64_t pattern)
{
    for (std::size_t i = 0; i + 8 <= bytes.size(); ++i) {
        if (std::memcmp(&bytes[i], &pattern, 8) == 0)
            return i;
    }
    ADD_FAILURE() << "pattern not found";
    return 0;
}

TEST(FillQueue, CorruptRestoreRefused)
{
    FillQueue fq("t", 4);
    fq.allocate(1, {}, false);
    fq.allocateWithData(2, {}, false, 3);
    const std::vector<std::uint8_t> bytes = saveBytes(fq);

    FillQueue wrong_cap("t", 8);
    EXPECT_THROW(loadBytes(wrong_cap, bytes), CheckpointError);

    // The occupancy counts and the min-ready gate are rebuilt from the
    // slots, so only slots that disagree with the drain order remain
    // to refuse: slots 0 and 1 live, slot 2 freed (its line stays in
    // the slot).
    constexpr LineAddr freed_line = 0x0a0b0c0d0e0f0102ull;
    FillQueue holes("t", 4);
    holes.allocate(1, {}, false);
    holes.allocate(2, {}, false);
    holes.release(holes.allocate(freed_line, {}, false));
    const std::vector<std::uint8_t> good = saveBytes(holes);
    {
        FillQueue ok("t", 4);
        EXPECT_NO_THROW(loadBytes(ok, good));
    }

    // A slot is serialized as its valid byte, then its line.
    std::vector<std::uint8_t> corrupt = good;
    corrupt[offsetOf(good, freed_line) - 1] = 1;
    FillQueue b("t", 4);
    EXPECT_THROW(loadBytes(b, corrupt), CheckpointError)
        << "a valid slot the drain order does not name";

    // The drain order (u32 slot indices) ends right before the next id
    // (u32): name slot 0 twice instead of slots 0 and 1.
    const std::size_t last_slot_at = good.size() - 4 - 4;
    corrupt = good;
    const std::uint32_t slot0 = 0;
    std::memcpy(&corrupt[last_slot_at], &slot0, 4);
    FillQueue c("t", 4);
    EXPECT_THROW(loadBytes(c, corrupt), CheckpointError)
        << "a drain order naming one slot twice";

    // Name the freed slot 2 instead of slot 1.
    corrupt = good;
    const std::uint32_t slot2 = 2;
    std::memcpy(&corrupt[last_slot_at], &slot2, 4);
    FillQueue d("t", 4);
    EXPECT_THROW(loadBytes(d, corrupt), CheckpointError)
        << "a drain order naming a free slot";
}

} // namespace
} // namespace bop
