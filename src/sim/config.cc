#include "sim/config.hh"

#include <bit>
#include <sstream>
#include <stdexcept>

#include "dram/address_map.hh"

namespace bop
{

namespace
{

const char *
prefetcherName(L2PrefetcherKind kind)
{
    switch (kind) {
      case L2PrefetcherKind::None:
        return "none";
      case L2PrefetcherKind::NextLine:
        return "next-line";
      case L2PrefetcherKind::FixedOffset:
        return "fixed-offset";
      case L2PrefetcherKind::BestOffset:
        return "best-offset";
      case L2PrefetcherKind::Sandbox:
        return "sandbox";
      case L2PrefetcherKind::Stream:
        return "stream";
      case L2PrefetcherKind::Fdp:
        return "fdp";
      case L2PrefetcherKind::Acdc:
        return "acdc";
      case L2PrefetcherKind::StreamBuffer:
        return "streambuf";
      case L2PrefetcherKind::BestOffsetDpc2:
        return "bo-dpc2";
    }
    return "?";
}

const char *
policyName(L3PolicyKind kind)
{
    switch (kind) {
      case L3PolicyKind::P5:
        return "5P";
      case L3PolicyKind::Lru:
        return "LRU";
      case L3PolicyKind::Drrip:
        return "DRRIP";
    }
    return "?";
}

} // namespace

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
    oss << ", "
        << (pageSize == PageSize::FourKB ? "4KB" : "4MB") << " pages, L2 "
        << prefetcherName(l2Prefetcher);
    if (l2Prefetcher == L2PrefetcherKind::FixedOffset)
        oss << "(D=" << fixedOffset << ")";
    oss << ", L3 " << policyName(l3Policy)
        << (dl1StridePrefetcher ? ", DL1 stride" : ", no DL1 prefetch");
    return oss.str();
}

} // namespace bop
