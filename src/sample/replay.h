/**
 * @file
 * Warmup-aware sampled replay.
 *
 * A SampledReplayer routes an op stream into a SystemModel,
 * simulating only the chosen representative intervals with live
 * counters. Everything else is either functionally warmed — run in
 * the SystemModel's counter-freeze mode, so caches, TLBs, the branch
 * predictor and coherence advance while PmcCounters stand still — or
 * fast-forwarded entirely when outside the warmup window (DMA events
 * always apply, keeping the memory image in sync).
 *
 * The stream comes from a driver callback into an ExecTarget: the
 * sampled path re-executes the stack engine into it (the stream is a
 * deterministic function of workload, data seed and core count), and
 * a recorded TraceRecorder replays into it just as well.
 */

#ifndef BDS_SAMPLE_REPLAY_H
#define BDS_SAMPLE_REPLAY_H

#include <cstdint>
#include <functional>
#include <vector>

#include "sample/picker.h"
#include "trace/microop.h"
#include "uarch/pmc.h"
#include "uarch/system.h"

namespace bds {

/** Op accounting of one sampled replay. */
struct SampledReplayStats
{
    std::uint64_t totalOps = 0;   ///< ops in the stream
    std::uint64_t detailOps = 0;  ///< simulated with live counters
    std::uint64_t warmOps = 0;    ///< replayed counter-frozen
    std::uint64_t skippedOps = 0; ///< fast-forwarded entirely
};

/** Replays a stream, detailing only the representative intervals. */
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

    /** Produces the op stream: drives every op and DMA into a target. */
    using Driver = std::function<void(ExecTarget &)>;

    /**
     * Replay the stream and capture per-representative counters.
     * @param drive Feeds the stream the profiler saw (its interval
     *        origin) into the target it is given, e.g. a
     *        WorkloadRunner::execute call or a TraceRecorder replay.
     * @param picked Representatives to simulate in detail.
     * @param stats Optional op-accounting sink.
     * @return One aggregated PmcCounters per representative, in
     *         picked.reps order.
     */
    std::vector<PmcCounters> replay(const Driver &drive,
                                    const PickResult &picked,
                                    SampledReplayStats *stats = nullptr);

  private:
    SystemModel &sys_;
    std::uint64_t intervalUops_;
    unsigned warmupIntervals_;
};

} // namespace bds

#endif // BDS_SAMPLE_REPLAY_H
