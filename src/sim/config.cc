#include "sim/config.hh"

#include <bit>
#include <sstream>
#include <stdexcept>

#include "dram/address_map.hh"

namespace bop
{

namespace
{

using K = L2PrefetcherKind;
const EnumName<K> l2Names[] = {
    {K::None, "none", {"none", nullptr}},
    {K::NextLine, "next-line", {"next-line", "nl"}},
    {K::FixedOffset, "fixed-offset", {"fixed", nullptr}},
    {K::BestOffset, "best-offset", {"bo", nullptr}},
    {K::BestOffsetDpc2, "bo-dpc2", {"bo-dpc2", nullptr}},
    {K::Sandbox, "sandbox", {"sbp", "sandbox"}},
    {K::Stream, "stream", {"stream", nullptr}},
    {K::StreamBuffer, "streambuf", {"streambuf", nullptr}},
    {K::Fdp, "fdp", {"fdp", nullptr}},
    {K::Acdc, "acdc", {"acdc", "ghb"}},
};

const EnumName<L3PolicyKind> l3Names[] = {
    {L3PolicyKind::P5, "5P", {"5p", nullptr}},
    {L3PolicyKind::Lru, "LRU", {"lru", nullptr}},
    {L3PolicyKind::Drrip, "DRRIP", {"drrip", nullptr}},
};

const EnumName<PageSize> pageNames[] = {
    {PageSize::FourKB, "4KB", {"4k", "4K"}},
    {PageSize::FourMB, "4MB", {"4m", "4M"}},
};

} // namespace

std::span<const EnumName<L2PrefetcherKind>>
enumNames(L2PrefetcherKind)
{
    return l2Names;
}

std::span<const EnumName<L3PolicyKind>>
enumNames(L3PolicyKind)
{
    return l3Names;
}

std::span<const EnumName<PageSize>>
enumNames(PageSize)
{
    return pageNames;
}

void
SystemConfig::validate() const
{
    std::ostringstream oss;
    if (numCores < 0) {
        oss << "SystemConfig: numCores must be >= 1 (or 0 for \"same as "
               "activeCores\"), got " << numCores;
        throw std::invalid_argument(oss.str());
    }
    if (activeCores < 1) {
        oss << "SystemConfig: activeCores must be >= 1, got "
            << activeCores;
        throw std::invalid_argument(oss.str());
    }
    if (activeCores > coreCount()) {
        oss << "SystemConfig: activeCores (" << activeCores
            << ") exceeds the chip topology's numCores (" << coreCount()
            << ")";
        throw std::invalid_argument(oss.str());
    }
    if (numChannels < 1 || numChannels > maxDramChannels ||
        !std::has_single_bit(static_cast<unsigned>(numChannels))) {
        oss << "SystemConfig: numChannels must be a power of two in [1, "
            << maxDramChannels << "] (the line-to-channel map XOR-folds "
            << "address bits), got " << numChannels;
        throw std::invalid_argument(oss.str());
    }
}

SystemConfig
SystemConfig::resolved() const
{
    validate();
    SystemConfig out = *this;
    out.numCores = coreCount();
    return out;
}

std::string
SystemConfig::describe() const
{
    std::ostringstream oss;
    oss << activeCores << "-core";
    if (coreCount() != activeCores)
        oss << "/" << coreCount() << "cpu";
    if (numChannels != 2)
        oss << ", " << numChannels << "-chan";
    oss << ", " << enumName(pageSize).label << " pages, L2 "
        << enumName(l2Prefetcher).label;
    if (l2Prefetcher == L2PrefetcherKind::FixedOffset)
        oss << "(D=" << fixedOffset << ")";
    oss << ", L3 " << enumName(l3Policy).label
        << (dl1StridePrefetcher ? ", DL1 stride" : ", no DL1 prefetch");
    return oss.str();
}

} // namespace bop
