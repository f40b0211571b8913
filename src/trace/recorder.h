/**
 * @file
 * Trace recording and replay.
 *
 * The paper's deliverable is a "simulator version" of the selected
 * workloads: capture once, then drive architecture studies from the
 * trace. TraceRecorder captures a micro-op stream and replays it into
 * any OpSink — e.g., fresh SystemModels with different cache
 * geometries. Replay into an identically configured model reproduces
 * the original counters exactly, because the whole simulator is a
 * deterministic function of the op stream.
 *
 * There are two ways to record. A stack engine drives a
 * RecordingTarget (sample/interval.h), the ExecTarget that keeps
 * every op and DMA fill. Or a TraceRecorder tees in front of a live
 * sink, and the caller mirrors each DMA fill with recordDma(). save()
 * writes the stream out; there is no loader, since the same stream
 * is cheaper to regenerate by re-running the deterministic engine.
 */

#ifndef BDS_TRACE_RECORDER_H
#define BDS_TRACE_RECORDER_H

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <vector>

#include "trace/microop.h"

namespace bds {

/** Records an op stream; optionally forwards it to a live sink. */
class TraceRecorder : public OpSink
{
  public:
    /**
     * @param tee Optional downstream sink every op is forwarded to
     *        (typically the live SystemModel). It sees ops only: the
     *        caller records each of its DMA fills with recordDma().
     */
    explicit TraceRecorder(OpSink *tee = nullptr) : tee_(tee) {}

    void consume(unsigned core, const MicroOp &op) override;

    /**
     * Record a device DMA fill (SystemModel::dmaFill). DMA events
     * are part of the trace: without them a replay would see warm
     * caches where the original run saw device-invalidated lines.
     */
    void recordDma(std::uint64_t addr, std::uint64_t bytes);

    /** Number of recorded events (micro-ops + DMA fills). */
    std::size_t size() const { return entries_.size(); }

    /**
     * Replay the recorded stream into a sink.
     * @param sink Consumer for the micro-ops.
     * @param dma Callback for DMA events (address, bytes); pass the
     *        target SystemModel's dmaFill for faithful replay. DMA
     *        events are skipped when empty.
     */
    void replay(OpSink &sink,
                const std::function<void(std::uint64_t, std::uint64_t)>
                    &dma = {}) const;

    /**
     * Serialize to a binary stream: a 20-byte header ("BDSTRACE",
     * a u32 version, a u64 event count) then 20 bytes per event, in
     * native endianness. It is a size and inspection format, not an
     * archive format.
     */
    void save(std::ostream &os) const;

  private:
    /** One packed trace entry. */
    struct Entry
    {
        std::uint64_t ip;
        std::uint64_t addr;
        std::uint8_t core;
        std::uint8_t cls;
        std::uint8_t mode;
        std::uint8_t flags; // bit0 taken, bit1 newInstruction,
                            // bit2 dependsOnPrevLoad, bit3 DMA event
                            // (then ip = address, addr = byte count)
    };

    OpSink *tee_;
    std::vector<Entry> entries_;
};

} // namespace bds

#endif // BDS_TRACE_RECORDER_H
