/**
 * @file
 * Per-layer probes: every workload driven through each layer's
 * public entry points on their own, each call under a span named
 * after its layer and tagged with the workload. run.py turns the
 * spans into per-op costs:
 *
 *   workloads.datagen     execute() up to its first op: the engine's
 *                         constructors (code layout, no ops) and the
 *                         make* generators building its inputs
 *   stack.execute_null    WorkloadRunner::execute into a counting
 *                         null ExecTarget (datagen + op generation)
 *   trace.record          execute into a RecordingTarget
 *                         (TraceRecorder behind the ExecTarget seam)
 *   trace.save            TraceRecorder::save into a byte counter
 *   uarch.replay_detail   the trace replayed into a SystemModel
 *   uarch.replay_warm     ... with setCounterFreeze(true)
 *   sample.profile        the trace replayed into an IntervalProfiler
 *   sample.pick           RepresentativePicker::pick on its features
 *   sample.captureWorkload / sample.replayCapture
 *                         the sampled path's two public stages
 */

#include <streambuf>

#include "harness.h"
#include "spans.h"

namespace perfbench {

namespace {

/** Work counters of the probes, per workload and summed. */
struct LedgerCounters
{
    std::uint64_t ops = 0;        ///< micro-ops the stack engines emit
    std::uint64_t traceEvents = 0; ///< recorded events (ops + DMA)
    std::uint64_t traceBytes = 0;  ///< serialized trace bytes, summed
    std::uint64_t maxTraceBytes = 0; ///< largest single trace
    std::uint64_t l2Misses = 0;    ///< detail replay L2 misses
    std::uint64_t sampledTotalOps = 0;  ///< replayCapture: all ops
    std::uint64_t sampledDetailOps = 0; ///< replayCapture: detail ops
    std::uint64_t sampledWarmOps = 0;   ///< replayCapture: warm ops
};

/** Null execution target: counts ops, models nothing. */
class CountingTarget : public bds::ExecTarget
{
  public:
    explicit CountingTarget(unsigned cores) : cores_(cores) {}

    void consume(unsigned, const bds::MicroOp &) override { ++ops_; }
    unsigned numCores() const override { return cores_; }
    void dmaFill(std::uint64_t, std::uint64_t) override {}

    std::uint64_t ops() const { return ops_; }

  private:
    unsigned cores_;
    std::uint64_t ops_ = 0;
};

/** Thrown by StopAtFirstOp once the workload starts emitting ops. */
struct FirstOp
{
};

/**
 * Execution target that ends execute() at its first op. Everything
 * execute() does before then is building the engine (code layout
 * only, no ops) and generating the inputs with the make* generators.
 */
class StopAtFirstOp : public bds::ExecTarget
{
  public:
    explicit StopAtFirstOp(unsigned cores) : cores_(cores) {}

    void consume(unsigned, const bds::MicroOp &) override
    {
        throw FirstOp{};
    }
    unsigned numCores() const override { return cores_; }
    void dmaFill(std::uint64_t, std::uint64_t) override {}

  private:
    unsigned cores_;
};

/** Output sink that only counts the bytes written to it. */
class ByteCounter : public std::streambuf
{
  public:
    std::uint64_t bytes() const { return bytes_; }

  protected:
    int_type overflow(int_type c) override
    {
        ++bytes_;
        return traits_type::not_eof(c);
    }
    std::streamsize xsputn(const char *, std::streamsize n) override
    {
        bytes_ += static_cast<std::uint64_t>(n);
        return n;
    }

  private:
    std::uint64_t bytes_ = 0;
};

/** One workload's probes; returns its counters. */
LedgerCounters
probeWorkload(const bds::WorkloadRunner &runner,
              const bds::SamplingOptions &opts,
              const bds::WorkloadId &id)
{
    const std::string name = id.name();
    const bds::NodeConfig &machine = runner.config();
    const std::uint64_t seed = runner.nodeDataSeed(id, 0);
    LedgerCounters c;
    {
        StopAtFirstOp stop(machine.numCores);
        Span span("workloads.datagen", name);
        try {
            runner.execute(id, stop, seed);
        } catch (const FirstOp &) {
        }
    }
    {
        CountingTarget null(machine.numCores);
        {
            Span span("stack.execute_null", name);
            runner.execute(id, null, seed);
        }
        c.ops = null.ops();
    }
    {
        bds::RecordingTarget rec(machine.numCores);
        {
            Span span("trace.record", name);
            runner.execute(id, rec, seed);
        }
        const bds::TraceRecorder &trace = rec.trace();
        c.traceEvents = trace.size();
        {
            ByteCounter counter;
            std::ostream os(&counter);
            Span span("trace.save", name);
            trace.save(os);
            c.traceBytes = c.maxTraceBytes = counter.bytes();
        }
        {
            bds::SystemModel sys(machine);
            {
                Span span("uarch.replay_detail", name);
                trace.replay(sys, [&sys](std::uint64_t a,
                                         std::uint64_t b) {
                    sys.dmaFill(a, b);
                });
            }
            c.l2Misses = sys.aggregateCounters().l2Misses;
        }
        {
            bds::SystemModel sys(machine);
            sys.setCounterFreeze(true);
            Span span("uarch.replay_warm", name);
            trace.replay(sys, [&sys](std::uint64_t a, std::uint64_t b) {
                sys.dmaFill(a, b);
            });
        }
        bds::IntervalProfiler profiler(opts.intervalUops, opts.bbvDims);
        {
            Span span("sample.profile", name);
            trace.replay(profiler);
            profiler.finish();
        }
        bds::RepresentativePicker picker(opts);
        Span span("sample.pick", name);
        picker.pick(profiler.featureMatrix(), profiler.intervals(),
                    opts.seed);
    }
    bds::WorkloadCapture cap;
    {
        Span span("sample.captureWorkload", name);
        cap = bds::captureWorkload(runner, opts, id, 0);
    }
    bds::SampledReplayStats stats;
    {
        Span span("sample.replayCapture", name);
        stats = bds::replayCapture(cap, machine, opts).stats;
    }
    c.sampledTotalOps = stats.totalOps;
    c.sampledDetailOps = stats.detailOps;
    c.sampledWarmOps = stats.warmOps;
    return c;
}

} // namespace

std::string
runLedger(const bds::WorkloadRunner &runner, unsigned threads)
{
    bds::SamplingOptions opts; // the defaults the sampled path runs
    opts.enabled = true;
    const std::vector<bds::WorkloadId> ids = bds::allWorkloads();
    std::vector<LedgerCounters> per(ids.size());
    {
        Span span("ledger");
        const std::int64_t parent = currentSpan();
        bds::parallelFor(ids.size(), threads, [&](std::size_t i) {
            SpanParent within(parent);
            per[i] = probeWorkload(runner, opts, ids[i]);
        });
    }
    LedgerCounters total;
    for (const LedgerCounters &c : per) {
        total.ops += c.ops;
        total.traceEvents += c.traceEvents;
        total.traceBytes += c.traceBytes;
        total.maxTraceBytes = std::max(total.maxTraceBytes,
                                       c.maxTraceBytes);
        total.l2Misses += c.l2Misses;
        total.sampledTotalOps += c.sampledTotalOps;
        total.sampledDetailOps += c.sampledDetailOps;
        total.sampledWarmOps += c.sampledWarmOps;
    }
    JsonOut out;
    out.count("ops", total.ops);
    out.count("trace_events", total.traceEvents);
    out.count("trace_bytes", total.traceBytes);
    out.count("max_trace_bytes", total.maxTraceBytes);
    out.count("l2_misses", total.l2Misses);
    out.count("sampled_total_ops", total.sampledTotalOps);
    out.count("sampled_detail_ops", total.sampledDetailOps);
    out.count("sampled_warm_ops", total.sampledWarmOps);
    return out.text();
}

} // namespace perfbench
