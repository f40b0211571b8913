#include "uarch/tlb.h"

#include "common/log.h"

namespace bds {

TlbArray::TlbArray(const TlbConfig &cfg)
    : cfg_(cfg)
{
    if (cfg_.entries == 0 || cfg_.assoc == 0 ||
        cfg_.entries % cfg_.assoc != 0)
        BDS_FATAL("TLB geometry does not divide evenly");
    numSets_ = cfg_.entries / cfg_.assoc;
    setsPow2_ = (numSets_ & (numSets_ - 1)) == 0;
    setMask_ = setsPow2_ ? numSets_ - 1 : 0;
    pages_.assign(cfg_.entries, kInvalidPage);
    lru_.assign(cfg_.entries, 0);
}

TwoLevelTlb::TwoLevelTlb(const TlbConfig &l1i, const TlbConfig &l1d,
                         const TlbConfig &stlb, std::uint32_t page_bytes)
    : pageShift_(0), itlb_(l1i), dtlb_(l1d), stlb_(stlb)
{
    if (page_bytes == 0 || (page_bytes & (page_bytes - 1)) != 0)
        BDS_FATAL("page size must be a power of two");
    while ((1u << pageShift_) < page_bytes)
        ++pageShift_;
}

} // namespace bds
