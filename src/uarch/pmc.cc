#include "uarch/pmc.h"

#include <algorithm>
#include <cmath>

#include "uarch/pmc_fields.h"

namespace bds {

std::array<double, PmcCounters::kNumFields>
PmcCounters::toArray() const
{
    std::array<double, kNumFields> out{};
    std::size_t i = 0;
#define BDS_PMC_U(f) out[i++] = static_cast<double>(f);
#define BDS_PMC_D(f) out[i++] = f;
    BDS_PMC_FIELDS(BDS_PMC_U, BDS_PMC_D)
#undef BDS_PMC_U
#undef BDS_PMC_D
    static_assert(kNumFields == 45, "field count drifted");
    return out;
}

PmcCounters
PmcCounters::fromArray(const std::array<double, kNumFields> &v)
{
    PmcCounters out;
    std::size_t i = 0;
#define BDS_PMC_U(f)                                                  \
    out.f = static_cast<std::uint64_t>(                               \
        std::llround(std::max(0.0, v[i++])));
#define BDS_PMC_D(f) out.f = v[i++];
    BDS_PMC_FIELDS(BDS_PMC_U, BDS_PMC_D)
#undef BDS_PMC_U
#undef BDS_PMC_D
    return out;
}

PmcCounters &
PmcCounters::operator+=(const PmcCounters &rhs)
{
    instructions += rhs.instructions;
    uops += rhs.uops;
    cycles += rhs.cycles;
    loadInstrs += rhs.loadInstrs;
    storeInstrs += rhs.storeInstrs;
    branchInstrs += rhs.branchInstrs;
    intInstrs += rhs.intInstrs;
    fpInstrs += rhs.fpInstrs;
    sseInstrs += rhs.sseInstrs;
    kernelInstrs += rhs.kernelInstrs;
    userInstrs += rhs.userInstrs;
    l1iHits += rhs.l1iHits;
    l1iMisses += rhs.l1iMisses;
    l2Hits += rhs.l2Hits;
    l2Misses += rhs.l2Misses;
    l3Hits += rhs.l3Hits;
    l3Misses += rhs.l3Misses;
    loadHitLfb += rhs.loadHitLfb;
    loadHitL2 += rhs.loadHitL2;
    loadHitSibling += rhs.loadHitSibling;
    loadHitL3Unshared += rhs.loadHitL3Unshared;
    loadLlcMiss += rhs.loadLlcMiss;
    itlbWalks += rhs.itlbWalks;
    itlbWalkCycles += rhs.itlbWalkCycles;
    dtlbWalks += rhs.dtlbWalks;
    dtlbWalkCycles += rhs.dtlbWalkCycles;
    dataHitStlb += rhs.dataHitStlb;
    branchesRetired += rhs.branchesRetired;
    branchesMispredicted += rhs.branchesMispredicted;
    branchesExecuted += rhs.branchesExecuted;
    fetchStallCycles += rhs.fetchStallCycles;
    ildStallCycles += rhs.ildStallCycles;
    decoderStallCycles += rhs.decoderStallCycles;
    ratStallCycles += rhs.ratStallCycles;
    resourceStallCycles += rhs.resourceStallCycles;
    uopsExecutedCycles += rhs.uopsExecutedCycles;
    offcoreData += rhs.offcoreData;
    offcoreCode += rhs.offcoreCode;
    offcoreRfo += rhs.offcoreRfo;
    offcoreWb += rhs.offcoreWb;
    snoopHit += rhs.snoopHit;
    snoopHitE += rhs.snoopHitE;
    snoopHitM += rhs.snoopHitM;
    mlpSum += rhs.mlpSum;
    mlpSamples += rhs.mlpSamples;
    return *this;
}

} // namespace bds
