#include "trace/recorder.h"

#include <ostream>

#include "common/log.h"

namespace bds {

namespace {

constexpr char kMagic[9] = "BDSTRACE";
constexpr std::uint32_t kVersion = 1;

} // namespace

void
TraceRecorder::consume(unsigned core, const MicroOp &op)
{
    if (core > 255)
        BDS_FATAL("trace format supports up to 256 cores");
    Entry e;
    e.ip = op.ip;
    e.addr = op.addr;
    e.core = static_cast<std::uint8_t>(core);
    e.cls = static_cast<std::uint8_t>(op.cls);
    e.mode = static_cast<std::uint8_t>(op.mode);
    e.flags = static_cast<std::uint8_t>(
        (op.taken ? 1u : 0u) | (op.newInstruction ? 2u : 0u)
        | (op.dependsOnPrevLoad ? 4u : 0u));
    entries_.push_back(e);
    if (tee_)
        tee_->consume(core, op);
}

void
TraceRecorder::recordDma(std::uint64_t addr, std::uint64_t bytes)
{
    Entry e{};
    e.ip = addr;
    e.addr = bytes;
    e.flags = 8u;
    entries_.push_back(e);
}

void
TraceRecorder::replay(
    OpSink &sink,
    const std::function<void(std::uint64_t, std::uint64_t)> &dma) const
{
    for (const Entry &e : entries_) {
        if (e.flags & 8u) {
            if (dma)
                dma(e.ip, e.addr);
            continue;
        }
        MicroOp op;
        op.ip = e.ip;
        op.addr = e.addr;
        op.cls = static_cast<OpClass>(e.cls);
        op.mode = static_cast<Mode>(e.mode);
        op.taken = (e.flags & 1u) != 0;
        op.newInstruction = (e.flags & 2u) != 0;
        op.dependsOnPrevLoad = (e.flags & 4u) != 0;
        sink.consume(e.core, op);
    }
}

void
TraceRecorder::save(std::ostream &os) const
{
    os.write(kMagic, 8);
    std::uint32_t version = kVersion;
    os.write(reinterpret_cast<const char *>(&version), sizeof(version));
    std::uint64_t count = entries_.size();
    os.write(reinterpret_cast<const char *>(&count), sizeof(count));
    for (const Entry &e : entries_) {
        os.write(reinterpret_cast<const char *>(&e.ip), sizeof(e.ip));
        os.write(reinterpret_cast<const char *>(&e.addr),
                 sizeof(e.addr));
        os.put(static_cast<char>(e.core));
        os.put(static_cast<char>(e.cls));
        os.put(static_cast<char>(e.mode));
        os.put(static_cast<char>(e.flags));
    }
    if (!os)
        BDS_FATAL("trace write failed");
}

} // namespace bds
