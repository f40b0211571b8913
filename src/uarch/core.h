/**
 * @file
 * One simulated core: private caches, TLBs, branch predictor, line
 * fill buffers, and the approximate cycle-accounting state.
 *
 * The cross-core data path (L3, coherence, offcore accounting) lives
 * in SystemModel; CoreModel owns everything private to a core.
 *
 * The LFB and MLP windows are fixed-capacity ring buffers (the
 * hardware they model is a ten-entry structure); they replace the
 * seed's std::deque with identical drop-oldest semantics.
 */

#ifndef BDS_UARCH_CORE_H
#define BDS_UARCH_CORE_H

#include <cstdint>
#include <vector>

#include "uarch/branch.h"
#include "uarch/cache.h"
#include "uarch/config.h"
#include "uarch/pmc.h"
#include "uarch/tlb.h"

namespace bds {

/** Private state of one simulated core. */
class CoreModel
{
  public:
    /** Build from the node configuration. */
    explicit CoreModel(const NodeConfig &cfg);

    SetAssocCache l1i;        ///< L1 instruction cache
    SetAssocCache l1d;        ///< L1 data cache
    SetAssocCache l2;         ///< private unified L2
    TwoLevelTlb tlb;          ///< two-level TLB
    GshareBranchPredictor bp; ///< branch predictor
    PmcCounters pmc;          ///< this core's counters

    /**
     * Microarchitectural time in cycles. Advances in lockstep with
     * pmc.cycles but is never reset or frozen: the LFB in-flight
     * window keys off this clock, so resetCounters() and the
     * counter-freeze mode leave timing state coherent.
     */
    double clock = 0.0;

    /**
     * Microarchitectural time in issued uops; same contract as
     * `clock` but in issue time. Drives the MLP overlap window.
     */
    std::uint64_t uopClock = 0;

    /**
     * Line-fill-buffer probe: true when the line has an outstanding
     * fill that has not completed by `now` (the access merges into
     * the in-flight fill). Expired entries are pruned.
     */
    bool lfbInFlight(std::uint64_t line_addr, double now);

    /**
     * Record an outstanding fill completing at `ready` (cycles).
     * Oldest entry is dropped when the buffers are full.
     */
    void lfbAllocate(std::uint64_t line_addr, double ready);

    /**
     * Account one LLC miss in the MLP model (the overlap window
     * state only; the caller records mlpSum/mlpSamples so the freeze
     * mode can redirect the counter writes).
     * @param dependent True for pointer-chase loads that cannot
     *        overlap the previous miss.
     * @return The overlap degree (>= 1) used to scale the unhidden
     *         latency.
     */
    double accountLlcMiss(bool dependent);

    /** Last instruction-fetch line, to dedup per-line ifetches. */
    std::uint64_t lastFetchLine = UINT64_MAX;

  private:
    struct LfbEntry
    {
        std::uint64_t line;
        double ready;
    };

    unsigned lfbEntries_;

    // LFB ring: capacity lfbEntries_ + 1 so a push can momentarily
    // exceed the architectural size before the oldest entry drops,
    // exactly like the seed's push_back-then-pop_front deque.
    std::vector<LfbEntry> lfb_;
    std::size_t lfbHead_ = 0;
    std::size_t lfbCount_ = 0;

    double missWindowUops_; ///< fill-latency window in issue (uop) time

    // MLP miss-window ring (ends in uop time), same shape as lfb_.
    std::vector<double> outstanding_;
    std::size_t outHead_ = 0;
    std::size_t outCount_ = 0;
};

} // namespace bds

#endif // BDS_UARCH_CORE_H
