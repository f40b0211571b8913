/**
 * @file
 * Performance-monitoring counters: the raw event counts the simulator
 * accumulates, standing in for the MSR-programmed PMCs the paper
 * reads with perf. The 45 Table II metrics are derived from these by
 * metrics.h.
 */

#ifndef BDS_UARCH_PMC_H
#define BDS_UARCH_PMC_H

#include <array>
#include <cstdint>

namespace bds {

/** Raw hardware-event counts for one core (or aggregated). */
struct PmcCounters
{
    // Retirement
    std::uint64_t instructions = 0; ///< macro-instructions retired
    std::uint64_t uops = 0;         ///< micro-ops retired
    double cycles = 0.0;            ///< core cycles (accounting model)

    // Instruction mix (by leading uop of each instruction)
    std::uint64_t loadInstrs = 0;
    std::uint64_t storeInstrs = 0;
    std::uint64_t branchInstrs = 0;
    std::uint64_t intInstrs = 0;
    std::uint64_t fpInstrs = 0;
    std::uint64_t sseInstrs = 0;
    std::uint64_t kernelInstrs = 0;
    std::uint64_t userInstrs = 0;

    // L1 instruction cache
    std::uint64_t l1iHits = 0;
    std::uint64_t l1iMisses = 0;

    // Unified private L2 (code + data)
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;

    // Shared L3
    std::uint64_t l3Hits = 0;
    std::uint64_t l3Misses = 0;

    // Load data-source breakdown
    std::uint64_t loadHitLfb = 0;        ///< L1D miss merged into LFB
    std::uint64_t loadHitL2 = 0;         ///< load served by own L2
    std::uint64_t loadHitSibling = 0;    ///< served by a sibling's L2
    std::uint64_t loadHitL3Unshared = 0; ///< L3 hit on unshared line
    std::uint64_t loadLlcMiss = 0;       ///< load missed the L3

    // TLBs
    std::uint64_t itlbWalks = 0;     ///< ITLB misses in all levels
    double itlbWalkCycles = 0.0;     ///< cycles spent in ITLB walks
    std::uint64_t dtlbWalks = 0;     ///< DTLB misses in all levels
    double dtlbWalkCycles = 0.0;     ///< cycles spent in DTLB walks
    std::uint64_t dataHitStlb = 0;   ///< L1 DTLB misses that hit STLB

    // Branches
    std::uint64_t branchesRetired = 0;
    std::uint64_t branchesMispredicted = 0;
    std::uint64_t branchesExecuted = 0; ///< includes wrong-path

    // Stall cycle buckets (accounting model)
    double fetchStallCycles = 0.0;
    double ildStallCycles = 0.0;
    double decoderStallCycles = 0.0;
    double ratStallCycles = 0.0;
    double resourceStallCycles = 0.0;
    double uopsExecutedCycles = 0.0; ///< cycles with >= 1 uop issued

    // Offcore requests (from this core toward the uncore)
    std::uint64_t offcoreData = 0;
    std::uint64_t offcoreCode = 0;
    std::uint64_t offcoreRfo = 0;
    std::uint64_t offcoreWb = 0;

    // Snoop responses this core's requests received
    std::uint64_t snoopHit = 0;
    std::uint64_t snoopHitE = 0;
    std::uint64_t snoopHitM = 0;

    // Parallelism
    double mlpSum = 0.0;           ///< sum of overlap degree per miss
    std::uint64_t mlpSamples = 0;  ///< number of LLC misses sampled

    /** Number of counter fields (toArray()/fromArray() length). */
    static constexpr std::size_t kNumFields = 45;

    /**
     * Flatten into a fixed-order double vector — the representation
     * the sampling estimator does weighted arithmetic on. Field
     * order matches the declaration order above.
     */
    std::array<double, kNumFields> toArray() const;

    /**
     * Rebuild counters from a toArray()-ordered vector. Integral
     * fields are rounded to the nearest count, so estimates built
     * from weighted sums come back as plausible event counts.
     */
    static PmcCounters fromArray(const std::array<double, kNumFields> &v);

    /** Element-wise accumulate (for aggregating cores). */
    PmcCounters &operator+=(const PmcCounters &rhs);

};

} // namespace bds

#endif // BDS_UARCH_PMC_H
