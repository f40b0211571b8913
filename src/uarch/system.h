/**
 * @file
 * The full node model: N cores around a shared L3 with snoop-based
 * coherence, offcore-request accounting, and the approximate cycle
 * model. Implements OpSink, so workloads drive it directly through
 * the instrumentation runtime.
 *
 * Data-path summary (documented in DESIGN.md):
 *  - loads:  L1D -> LFB -> L2 -> (snoop siblings, L3) -> memory
 *  - stores: write-allocate with MESI ownership (RFO on S/miss)
 *  - code:   L1I -> L2 -> L3 -> memory, per fetched line
 *  - L1s are inclusive in the private L2; L2 evictions invalidate L1
 *    copies and write dirty data back (offcore WB)
 *  - one snoop response is recorded per offcore request, using the
 *    most severe sibling state (M > E > S)
 *
 * The op path is compiled twice from one source (a kFrozen template
 * parameter): the detail path updates PmcCounters and state; the
 * fast path — taken while the counter-freeze (functional warming)
 * mode is on — strips every counter write and updates only
 * microarchitectural state and the monotonic clocks. Both paths
 * drive state identically, which is what makes warming-then-
 * measuring bitwise-equal to an uninterrupted detailed run
 * (docs/PERFORMANCE.md, tests/uarch/test_warm_paths.cc).
 */

#ifndef BDS_UARCH_SYSTEM_H
#define BDS_UARCH_SYSTEM_H

#include <vector>

#include "trace/microop.h"
#include "uarch/cache.h"
#include "uarch/config.h"
#include "uarch/core.h"
#include "uarch/pmc.h"

namespace bds {

/** One simulated multicore node. */
class SystemModel : public ExecTarget
{
  public:
    /** Build a node from a configuration. */
    explicit SystemModel(const NodeConfig &cfg);

    /** Execute one micro-op on the given core. */
    void consume(unsigned core, const MicroOp &op) override;

    /** Node configuration. */
    const NodeConfig &config() const { return cfg_; }

    /** Number of cores. */
    unsigned numCores() const override
    {
        return static_cast<unsigned>(cores_.size());
    }

    /** Counters of one core. */
    const PmcCounters &coreCounters(unsigned core) const;

    /** Sum of all cores' counters. */
    PmcCounters aggregateCounters() const;

    /**
     * Zero all counters while keeping the microarchitectural state
     * (caches, TLBs, predictor) warm — the paper's ramp-up protocol.
     */
    void resetCounters();

    /**
     * Functional-warming switch for sampled simulation. While on,
     * every micro-op still advances the full microarchitectural
     * state — caches, TLBs, the branch predictor, coherence, the
     * LFB/MLP windows, and the monotonic core clocks — but the op
     * stream runs on the stripped fast path, which compiles out all
     * PmcCounters writes, so `pmc` (and therefore cycle accounting)
     * stands still. Freeze→unfreeze→replay of a trace reproduces the
     * counters of an uninterrupted detailed run bitwise, because no
     * observable state depends on the counters themselves.
     */
    void setCounterFreeze(bool on) { frozen_ = on; }

    /** Whether the counter-freeze (functional warming) mode is on. */
    bool counterFrozen() const { return frozen_; }

    /**
     * Model a device DMA write into memory (e.g., a disk or NIC
     * filling a page-cache buffer): every cached copy of the touched
     * lines is invalidated, so subsequent reads pay real DRAM
     * accesses. This is what makes I/O-bound stacks generate memory
     * traffic even when their buffers are reused.
     */
    void dmaFill(std::uint64_t addr, std::uint64_t bytes) override;

    /** Mutable core access (tests and white-box benches). */
    CoreModel &core(unsigned idx);

    /** The shared L3 (tests). */
    SetAssocCache &l3() { return l3_; }

    /**
     * Verify the coherence and inclusion invariants; panics with a
     * description on violation. Checked properties:
     *  - a line Modified or Exclusive in one core's L2 is not valid
     *    in any other core's private caches;
     *  - at most one core holds any line in M/E state;
     *  - every line in a core's L1I/L1D is also in that core's L2
     *    (inclusion), with an L1 state no stronger than the L2's.
     */
    void checkInvariants() const;

  private:
    /** Most severe sibling coherence state for a line. */
    struct SnoopResult
    {
        CoherenceState state = CoherenceState::Invalid; ///< best state
        int owner = -1; ///< core holding it at that state

        /**
         * Bit i set when core i's L2 holds the line (any state).
         * Lets settleSnoop touch only the actual holders instead of
         * re-probing every sibling.
         */
        std::uint64_t holders = 0;
    };

    /** Probe all cores but `requester` for the line. */
    SnoopResult snoop(unsigned requester, std::uint64_t addr) const;

    /**
     * Downgrade/invalidate sibling copies after a snoop hit and
     * record the snoop response in the requester's counters (detail
     * path only).
     */
    template <bool kFrozen>
    void settleSnoop(unsigned requester, std::uint64_t addr,
                     const SnoopResult &sr, bool for_ownership);

    /** Outcome of an offcore fill. */
    struct FillOutcome
    {
        double latency = 0.0;      ///< exposed fill latency
        bool fromSibling = false;  ///< served cache-to-cache
        bool l3Hit = false;        ///< L3 lookup hit
        bool memAccess = false;    ///< went to DRAM
        CoherenceState fillState = CoherenceState::Exclusive;
    };

    /**
     * Service a private-hierarchy miss: snoop, L3 lookup, memory.
     * Updates offcore/snoop/L3 counters on the detail path; does NOT
     * insert into the requester's private caches (the caller does).
     */
    template <bool kFrozen>
    FillOutcome fillLine(unsigned requester, std::uint64_t addr,
                         bool for_ownership, bool is_code,
                         bool dependent_load);

    /**
     * Install a line the private hierarchy was known to miss: insert
     * into L2 (handling eviction + inclusion) and optionally into an
     * L1. Load fills skip the L1D install — the line sits in the LFB
     * until a later touch pulls it from the L2 — which is what makes
     * LOAD HIT LFB observable.
     * @param dirty Insert the copies already marked dirty (stores).
     */
    template <bool kFrozen>
    void installMissFill(unsigned core_id, std::uint64_t addr,
                         CoherenceState state, bool is_code,
                         bool install_l1, bool dirty = false);

    /**
     * Pull a line the L2 already holds into an L1 it was known to
     * miss (the L2-hit halves of loads/stores; the caller has already
     * settled the L2 state).
     */
    template <bool kFrozen>
    void installL1Fill(unsigned core_id, std::uint64_t addr,
                       CoherenceState state, bool is_code,
                       bool dirty = false);

    /** The templated op path; consume() dispatches on frozen_. */
    template <bool kFrozen>
    void consumeOp(unsigned core_id, const MicroOp &op);

    /** Handle an instruction fetch for the op's ip. */
    template <bool kFrozen>
    void doFetch(unsigned core_id, const MicroOp &op);

    template <bool kFrozen>
    void doLoad(unsigned core_id, const MicroOp &op);
    template <bool kFrozen>
    void doStore(unsigned core_id, const MicroOp &op);
    template <bool kFrozen>
    void doBranch(unsigned core_id, const MicroOp &op);

    /** Data-TLB translation with stall accounting. */
    template <bool kFrozen>
    void translateData(unsigned core_id, std::uint64_t addr);

    NodeConfig cfg_;
    std::vector<CoreModel> cores_;
    SetAssocCache l3_;
    double invIssueWidth_;
    bool frozen_ = false; ///< counter-freeze (functional warming) mode
};

} // namespace bds

#endif // BDS_UARCH_SYSTEM_H
