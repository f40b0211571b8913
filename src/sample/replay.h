/**
 * @file
 * Warmup-aware sampled replay.
 *
 * A SampledReplayer drives a recorded op stream into a SystemModel,
 * simulating only the chosen representative intervals with live
 * counters. Everything else is either functionally warmed — replayed
 * in the SystemModel's counter-freeze mode, so caches, TLBs, the
 * branch predictor and coherence advance while PmcCounters stand
 * still — or fast-forwarded entirely when outside the warmup window
 * (DMA events always apply, keeping the memory image in sync).
 */

#ifndef BDS_SAMPLE_REPLAY_H
#define BDS_SAMPLE_REPLAY_H

#include <cstdint>
#include <vector>

#include "sample/picker.h"
#include "trace/recorder.h"
#include "uarch/pmc.h"
#include "uarch/system.h"

namespace bds {

/** Op accounting of one sampled replay. */
struct SampledReplayStats
{
    std::uint64_t totalOps = 0;   ///< ops in the trace
    std::uint64_t detailOps = 0;  ///< simulated with live counters
    std::uint64_t warmOps = 0;    ///< replayed counter-frozen
    std::uint64_t skippedOps = 0; ///< fast-forwarded entirely
};

/** Replays a trace, detailing only the representative intervals. */
class SampledReplayer
{
  public:
    /**
     * @param sys Target node (fresh, same geometry as the recording).
     * @param interval_uops Interval size used by the profiler.
     * @param warmup_intervals Warming window before each
     *        representative; 0 warms every non-detail interval.
     */
    SampledReplayer(SystemModel &sys, std::uint64_t interval_uops,
                    unsigned warmup_intervals);

    /**
     * Replay the trace and capture per-representative counters.
     * @param trace The recorded stream (profiler's interval origin).
     * @param picked Representatives to simulate in detail.
     * @param stats Optional op-accounting sink.
     * @return One aggregated PmcCounters per representative, in
     *         picked.reps order.
     */
    std::vector<PmcCounters> replay(const TraceRecorder &trace,
                                    const PickResult &picked,
                                    SampledReplayStats *stats = nullptr);

  private:
    SystemModel &sys_;
    std::uint64_t intervalUops_;
    unsigned warmupIntervals_;
};

} // namespace bds

#endif // BDS_SAMPLE_REPLAY_H
