/**
 * @file
 * The capture/replay seam of the sampled path.
 *
 * The first three stages of sampled characterization — record the op
 * stream, profile it into intervals, pick weighted representatives —
 * depend only on the workload, its data seed, the sampling knobs and
 * the recorded core count. They never touch cache or predictor
 * state. The last two stages — warm + detailed replay, counter
 * estimation — are where the machine geometry matters. Splitting the
 * pipeline at that boundary lets a design-space-exploration sweep
 * (bench/dse_sweep.cc) capture each workload once and replay the one
 * capture against every same-core-count geometry, exactly the
 * trace-driven methodology of the paper's tech-report sequel.
 *
 * SampledCharacterizer::runOnNode() is implemented on this seam, so
 * the single-machine path and the sweep path cannot drift apart: a
 * capture replayed on the capturing runner's own machine is bitwise
 * identical to the monolithic pipeline it replaced.
 */

#ifndef BDS_SAMPLE_CAPTURE_H
#define BDS_SAMPLE_CAPTURE_H

#include "sample/characterizer.h"
#include "sample/options.h"
#include "sample/picker.h"
#include "trace/recorder.h"
#include "workloads/registry.h"

namespace bds {

/**
 * One workload's machine-independent sampling state: the recorded op
 * stream plus the interval selection made over it. Valid for replay
 * on any geometry with the same core count (the stack engines shard
 * work across cores at record time, so the stream itself bakes the
 * core count in — replaying a 4-core trace on a 2-core machine would
 * not be that machine's execution).
 */
struct WorkloadCapture
{
    WorkloadId id{};          ///< which workload was captured
    unsigned node = 0;        ///< cluster-node shard index
    unsigned numCores = 0;    ///< core count the trace was recorded on
    TraceRecorder trace;      ///< the full op/DMA stream
    PickResult picked;        ///< representative intervals + weights
    std::size_t numIntervals = 0; ///< profiled intervals
};

/**
 * Record, profile and pick for one (workload, node) shard: stages
 * 1-3 of the sampled pipeline. Seeds derive from (opts.seed, id,
 * node) and the current retry attempt only, so captures are
 * deterministic at any thread count. Raises Error(InvalidConfig) on
 * degenerate sampling knobs.
 */
WorkloadCapture captureWorkload(const WorkloadRunner &runner,
                                const SamplingOptions &opts,
                                const WorkloadId &id, unsigned node);

/**
 * Warm, replay and estimate a capture on `machine`: stages 4-5 of
 * the sampled pipeline, including the fault layer's metric-
 * corruption injection point and the non-finite estimate check.
 * Raises Error(InvalidConfig) when `machine` has a different core
 * count than the capture was recorded on.
 */
SampledWorkloadResult replayCapture(const WorkloadCapture &cap,
                                    const NodeConfig &machine,
                                    const SamplingOptions &opts);

} // namespace bds

#endif // BDS_SAMPLE_CAPTURE_H
