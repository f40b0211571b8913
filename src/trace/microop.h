/**
 * @file
 * The micro-operation abstraction that couples workloads to the
 * microarchitecture model.
 *
 * Workloads and software-stack engines execute real algorithms; the
 * instrumentation runtime (runtime.h) translates their actions into a
 * stream of MicroOps carrying genuine instruction and data addresses.
 * The uarch SystemModel consumes that stream and drives caches, TLBs,
 * the branch predictor, coherence, and the cycle-accounting model —
 * standing in for the paper's hardware performance counters.
 */

#ifndef BDS_TRACE_MICROOP_H
#define BDS_TRACE_MICROOP_H

#include <cstdint>

namespace bds {

/** Functional class of a micro-operation. */
enum class OpClass : std::uint8_t
{
    Load,    ///< memory read
    Store,   ///< memory write
    Branch,  ///< conditional or unconditional control transfer
    IntAlu,  ///< integer arithmetic/logic
    FpAlu,   ///< x87 floating point
    SseAlu,  ///< SSE (packed) floating point
};

/** Privilege mode the op executes in. */
enum class Mode : std::uint8_t
{
    User,   ///< ring 3 — application and framework code
    Kernel, ///< ring 0 — I/O, page management, network stack
};

/** One micro-operation. */
struct MicroOp
{
    OpClass cls = OpClass::IntAlu;
    Mode mode = Mode::User;

    /** Instruction pointer (code address) of the parent instruction. */
    std::uint64_t ip = 0;

    /** Data address for Load/Store; ignored otherwise. */
    std::uint64_t addr = 0;

    /** Conditional-branch outcome (Branch only). */
    bool taken = false;

    /**
     * Load only: the address depends on the value of the previous
     * load (pointer chase), so a miss cannot overlap the previous
     * one. Drives the MLP model.
     */
    bool dependsOnPrevLoad = false;

    /**
     * True when this uop begins a new macro-instruction. Engines emit
     * microcoded instructions as one leading uop plus trailing uops
     * with this flag cleared, which drives the UOPS_TO_INS metric.
     */
    bool newInstruction = true;
};

/** Consumer of a micro-op stream. */
class OpSink
{
  public:
    virtual ~OpSink() = default;

    /**
     * Consume one micro-op executed by the given simulated core.
     * @param core Core index within the node.
     * @param op The micro-op.
     */
    virtual void consume(unsigned core, const MicroOp &op) = 0;
};

/**
 * Execution platform the workload/stack layer drives: an op sink
 * plus the two node-level services engines need — the core count
 * (for task scheduling) and device DMA (for the I/O path).
 *
 * The uarch SystemModel is the detailed implementation. The sampling
 * subsystem (src/sample) provides the cheap ones: a profiling target
 * and the replayer's plan sink, so a pass can generate the op stream
 * of a workload without paying for detailed simulation, and
 * RecordingTarget, the one way an engine run is kept as a
 * TraceRecorder.
 */
class ExecTarget : public OpSink
{
  public:
    /** Number of simulated cores tasks may be scheduled onto. */
    virtual unsigned numCores() const = 0;

    /** Model a device DMA write of `bytes` at `addr` into memory. */
    virtual void dmaFill(std::uint64_t addr, std::uint64_t bytes) = 0;
};

} // namespace bds

#endif // BDS_TRACE_MICROOP_H
