#include "cache/fill_queue.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace bop
{

FillQueue::FillQueue(std::string name_, std::size_t capacity_)
    : name(std::move(name_)), capacity(capacity_)
{
    slots.resize(capacity);
    fifo.reserve(capacity);
}

std::size_t
FillQueue::slotOf(std::uint32_t id) const
{
    // The fifo holds exactly the live slots, so scanning it visits
    // size() entries instead of all capacity slots.
    for (const std::uint32_t s : fifo) {
        if (slots[s].id == id)
            return s;
    }
    throw std::logic_error(name + ": unknown fill queue entry id");
}

std::uint32_t
FillQueue::allocate(LineAddr line, const ReqMeta &meta, bool is_prefetch)
{
    assert(!full() && "caller must check full() before allocating");
    for (std::size_t s = 0; s < slots.size(); ++s) {
        FillQueueEntry &slot = slots[s];
        if (!slot.valid) {
            slot.valid = true;
            slot.line = line;
            slot.hasData = false;
            slot.readyAt = 0;
            slot.isPrefetch = is_prefetch;
            slot.meta = meta;
            slot.id = nextId++;
            fifo.push_back(static_cast<std::uint32_t>(s));
            ++liveEntries;
            ++contentEpoch;
            return slot.id;
        }
    }
    throw std::logic_error(name + ": no free slot despite !full()");
}

void
FillQueue::release(std::uint32_t id)
{
    for (auto it = fifo.begin(); it != fifo.end(); ++it) {
        FillQueueEntry &slot = slots[*it];
        if (slot.id == id) {
            const bool had_data = slot.hasData;
            const Cycle ready = slot.readyAt;
            slot.valid = false;
            slot.hasData = false;
            --liveEntries;
            ++contentEpoch;
            // Erase before recomputing the minimum, or the scan would
            // still see the dying entry and pin a stale value.
            fifo.erase(it);
            if (had_data) {
                --dataEntries;
                if (ready == minDataReady)
                    recomputeMinDataReady();
            }
            return;
        }
    }
    throw std::logic_error(name + ": unknown fill queue entry id");
}

void
FillQueue::fillData(std::uint32_t id, Cycle ready_at)
{
    FillQueueEntry &slot = slots[slotOf(id)];
    const bool refill = slot.hasData;
    const Cycle old_ready = slot.readyAt;
    if (!refill)
        ++dataEntries;
    slot.hasData = true;
    slot.readyAt = ready_at;
    if (ready_at < minDataReady)
        minDataReady = ready_at;
    else if (refill && old_ready == minDataReady && ready_at > old_ready)
        recomputeMinDataReady(); // the minimum entry moved later
}

std::uint32_t
FillQueue::allocateWithData(LineAddr line, const ReqMeta &meta,
                            bool is_prefetch, Cycle ready_at)
{
    const std::uint32_t id = allocate(line, meta, is_prefetch);
    fillData(id, ready_at);
    return id;
}

FillQueueEntry *
FillQueue::find(LineAddr line)
{
    // The CAM is probed on every request travelling between cache
    // levels, so the scan is occupancy-bounded: skip the whole search
    // when empty and stop once every live entry has been inspected.
    if (liveEntries == 0)
        return nullptr;
    std::size_t seen = 0;
    for (auto &slot : slots) {
        if (!slot.valid)
            continue;
        if (slot.line == line)
            return &slot;
        if (++seen == liveEntries)
            break;
    }
    return nullptr;
}

const FillQueueEntry *
FillQueue::find(LineAddr line) const
{
    return const_cast<FillQueue *>(this)->find(line);
}

FillQueue::ReadyHead
FillQueue::readyHead(Cycle now) const
{
    ReadyHead head;
    if (minDataReady > now) {
        head.earlierReadyAt = minDataReady;
        return head;
    }
    for (const std::uint32_t s : fifo) {
        const FillQueueEntry &slot = slots[s];
        if (!slot.hasData)
            continue;
        if (slot.readyAt <= now) {
            head.entry = &slot;
            return head;
        }
        head.earlierReadyAt = std::min(head.earlierReadyAt, slot.readyAt);
    }
    assert(false && "minDataReady names a ready entry");
    return head;
}

FillQueueEntry *
FillQueue::peekReady(Cycle now)
{
    return const_cast<FillQueueEntry *>(readyHead(now).entry);
}

std::optional<FillQueueEntry>
FillQueue::popReady(Cycle now)
{
    if (minDataReady > now)
        return std::nullopt;
    for (auto it = fifo.begin(); it != fifo.end(); ++it) {
        FillQueueEntry &slot = slots[*it];
        if (slot.hasData && slot.readyAt <= now) {
            FillQueueEntry copy = slot;
            slot.valid = false;
            slot.hasData = false;
            --dataEntries;
            --liveEntries;
            ++contentEpoch;
            fifo.erase(it);
            if (copy.readyAt == minDataReady)
                recomputeMinDataReady();
            return copy;
        }
    }
    return std::nullopt;
}

void
FillQueue::recomputeMinDataReady()
{
    minDataReady = neverCycle;
    if (dataEntries == 0)
        return;
    std::size_t seen = 0;
    for (const std::uint32_t s : fifo) {
        const FillQueueEntry &slot = slots[s];
        if (!slot.hasData)
            continue;
        if (slot.readyAt < minDataReady)
            minDataReady = slot.readyAt;
        if (++seen == dataEntries)
            break;
    }
}

FillQueueEntry &
FillQueue::entry(std::uint32_t id)
{
    return slots[slotOf(id)];
}

void
FillQueue::serialize(Serializer &s)
{
    const std::string queue = "fill queue '" + name + "'";
    s.seqExact(slots, [](Serializer &sr, FillQueueEntry &e) {
        sr.value(e.valid);
        sr.value(e.line);
        sr.value(e.hasData);
        sr.value(e.readyAt);
        sr.value(e.isPrefetch);
        e.meta.serialize(sr);
        sr.value(e.id);
    }, queue + " slots");
    s.valueVec(fifo, capacity, queue + " drain order");
    s.value(nextId);
    if (!s.loading())
        return;
    std::vector<char> named(capacity, 0);
    dataEntries = 0;
    for (const std::uint32_t slot : fifo) {
        if (slot >= capacity || !slots[slot].valid)
            s.fail(queue + " drain order names a free slot");
        if (named[slot]++)
            s.fail(queue + " drain order names a slot twice");
        dataEntries += slots[slot].hasData;
    }
    // With every named slot valid and named once, this makes the
    // drain order name exactly the valid slots, which find() and
    // allocate() scan.
    std::size_t valid = 0;
    for (const FillQueueEntry &e : slots)
        valid += e.valid;
    if (valid != fifo.size())
        s.fail(queue + " holds valid slots the drain order does not name");
    liveEntries = fifo.size();
    recomputeMinDataReady();
    ++contentEpoch;
}

} // namespace bop
