/**
 * @file
 * The capture/replay seam of the sampled path.
 *
 * The first three stages of sampled characterization — generate and
 * profile the op stream into intervals, then pick weighted
 * representatives — depend only on the workload, its data seed, the
 * sampling knobs and the core count. They never touch cache or
 * predictor state. The last two stages — warm + detailed replay,
 * counter estimation — are where the machine geometry matters.
 * Splitting the pipeline at that boundary lets a design-space-
 * exploration sweep (bench/dse_sweep.cc) pick each workload's
 * intervals once and replay them against every same-core-count
 * geometry.
 *
 * No trace is kept between the two halves. The op stream is a
 * deterministic function of (workload, data seed, core count), so a
 * capture holds what regenerates it — the runner and the resolved
 * data seed — and replay re-executes the stack engine, which costs
 * less than storing the stream at 24 bytes per op.
 *
 * SampledCharacterizer::runOnNode() is implemented on this seam, so
 * the single-machine path and the sweep path cannot drift apart: a
 * capture replayed on the capturing runner's own machine is bitwise
 * identical to the monolithic pipeline it replaced.
 */

#ifndef BDS_SAMPLE_CAPTURE_H
#define BDS_SAMPLE_CAPTURE_H

#include <cstdint>
#include <optional>

#include "sample/characterizer.h"
#include "sample/options.h"
#include "sample/picker.h"
#include "workloads/registry.h"

namespace bds {

/**
 * One workload's machine-independent sampling state: the interval
 * selection plus what re-runs the op stream it was made over. Valid
 * for replay on any geometry with the same core count (the stack
 * engines shard work across cores, so the stream bakes the core
 * count in — replaying a 4-core capture on a 2-core machine would
 * not be that machine's execution). A default-constructed capture
 * is empty and cannot be replayed.
 */
struct WorkloadCapture
{
    WorkloadId id{};          ///< which workload was captured
    unsigned node = 0;        ///< cluster-node shard index
    unsigned numCores = 0;    ///< core count the stream ran on
    std::optional<WorkloadRunner> runner; ///< re-runs the stream
    std::uint64_t dataSeed = 0; ///< resolved seed of the captured attempt
    PickResult picked;        ///< representative intervals + weights
    std::size_t numIntervals = 0; ///< profiled intervals
};

/**
 * Profile and pick for one (workload, node) shard: stages 1-3 of the
 * sampled pipeline, with the stack engine feeding the profiler
 * directly. Seeds derive from (opts.seed, id, node) and the current
 * retry attempt only, so captures are deterministic at any thread
 * count. The capture keeps a copy of `runner`. Raises
 * Error(InvalidConfig) on degenerate sampling knobs.
 */
WorkloadCapture captureWorkload(const WorkloadRunner &runner,
                                const SamplingOptions &opts,
                                const WorkloadId &id, unsigned node);

/**
 * Warm, replay and estimate a capture on `machine`: stages 4-5 of
 * the sampled pipeline, re-executing the captured stack engine into
 * the replayer, including the fault layer's metric-corruption
 * injection point and the non-finite estimate check. Raises
 * Error(InvalidConfig) when the capture is empty or `machine` has a
 * different core count than the capture ran on.
 */
SampledWorkloadResult replayCapture(const WorkloadCapture &cap,
                                    const NodeConfig &machine,
                                    const SamplingOptions &opts);

} // namespace bds

#endif // BDS_SAMPLE_CAPTURE_H
