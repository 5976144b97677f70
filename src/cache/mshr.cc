#include "cache/mshr.hh"

#include <cassert>

namespace bop
{

MshrFile::MshrFile(std::size_t capacity)
{
    entries.resize(capacity);
    lineTags.assign(capacity, freeTag);
}

std::size_t
MshrFile::slotOf(LineAddr line) const
{
    if (live == 0)
        return lineTags.size();
    for (std::size_t s = 0; s < lineTags.size(); ++s) {
        if (lineTags[s] == line)
            return s;
    }
    return lineTags.size();
}

MshrEntry *
MshrFile::find(LineAddr line)
{
    const std::size_t s = slotOf(line);
    return s < entries.size() ? &entries[s] : nullptr;
}

std::uint32_t
MshrFile::allocate(LineAddr line, bool prefetch_only, Cycle now)
{
    assert(!full());
    assert(!find(line) && "caller must coalesce instead of reallocating");
    assert(line != freeTag && "line address collides with the free-slot "
                              "sentinel");
    for (std::size_t s = 0; s < entries.size(); ++s) {
        MshrEntry &e = entries[s];
        if (!e.valid) {
            e.valid = true;
            e.line = line;
            e.prefetchOnly = prefetch_only;
            e.storeIntent = false;
            e.storeWaiters = 0;
            e.waiters.clear();
            e.issuedAt = now;
            e.id = nextId++;
            lineTags[s] = line;
            ++live;
            return e.id;
        }
    }
    assert(false);
    return 0;
}

std::optional<MshrEntry>
MshrFile::complete(LineAddr line)
{
    const std::size_t s = slotOf(line);
    if (s == entries.size())
        return std::nullopt;
    MshrEntry copy = entries[s];
    entries[s].valid = false;
    lineTags[s] = freeTag;
    --live;
    return copy;
}

std::optional<MshrEntry>
MshrFile::completeById(std::uint32_t id)
{
    for (std::size_t s = 0; s < entries.size(); ++s) {
        MshrEntry &e = entries[s];
        if (e.valid && e.id == id) {
            MshrEntry copy = e;
            e.valid = false;
            lineTags[s] = freeTag;
            --live;
            return copy;
        }
    }
    return std::nullopt;
}

void
MshrFile::serialize(Serializer &s)
{
    s.seqExact(entries, [](Serializer &sr, MshrEntry &e) {
        sr.value(e.valid);
        sr.value(e.line);
        sr.value(e.prefetchOnly);
        sr.value(e.storeIntent);
        sr.value(e.storeWaiters);
        sr.valueVec(e.waiters);
        sr.value(e.issuedAt);
        sr.value(e.id);
    }, "MSHR file entries");
    s.value(nextId);
    if (s.loading()) {
        live = 0;
        for (std::size_t slot = 0; slot < entries.size(); ++slot) {
            lineTags[slot] = entries[slot].valid ? entries[slot].line
                                                 : freeTag;
            live += entries[slot].valid;
        }
    }
}

} // namespace bop
