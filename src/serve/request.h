/**
 * @file
 * The serving request formats: the text line protocol clients speak
 * and the fixed-size binary record streams that make request logs
 * durable and replayable.
 *
 * A characterization request names a cell of the sweep space —
 * workload set x scale x seed x metric set x sim/sample config — in
 * one line:
 *
 *   characterize scale=quick seed=42 [sampled=0|1] [bypass=0|1]
 *                [machine=default|westmere|l3-4m|...]
 *                [workloads=all|H-Sort,S-Grep,...]
 *                [metrics=all|LOAD,ILP,SSE_FP,...]
 *
 * Metric names spell their spaces as '_' on the wire ("SSE FP"
 * travels as "SSE_FP") because tokens split on whitespace. The
 * machine key accepts registry preset names only — the record stores
 * a preset index, keeping it fixed-size; free-form key=value
 * override specs are a library/CLI feature (--machine), not a wire
 * one.
 *
 * parseRequestLine() resolves it strictly (unknown keys, unknown
 * workload or metric names, malformed integers are typed
 * InvalidConfig errors) into a RequestRecord; formatRequestLine()
 * renders the canonical text back, so text and binary forms
 * round-trip.
 *
 * The binary form follows the load_workload/store_workload idiom of
 * the index-benchmark literature: a small header (magic, version,
 * record count) followed by packed fixed-size records, so a million-
 * request log is one sequential read. Loading rejects bad magic, a
 * wrong version, truncated records (an overstated count) and trailing
 * bytes beyond the declared count, each as a typed Io error, never a
 * silent short read.
 */

#ifndef BDS_SERVE_REQUEST_H
#define BDS_SERVE_REQUEST_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fault/error.h"

namespace bds {

/** Request verbs carried by a record. */
enum class ServeOp : std::uint32_t
{
    Characterize = 0, ///< run/fetch one characterization cell
};

/** RequestRecord.flags bits. */
enum : std::uint32_t
{
    kServeFlagSampled = 1u << 0, ///< sampled-simulation path
    kServeFlagBypass = 1u << 1,  ///< skip the result store
};

/**
 * One durable request: a fixed-size, trivially copyable record.
 * Integers are stored in host byte order; the log header's magic
 * doubles as an endianness check.
 */
struct RequestRecord
{
    std::uint32_t op = 0;    ///< ServeOp
    std::uint32_t scale = 0; ///< 0 quick / 1 standard / 2 full
    std::uint64_t seed = 42; ///< data-generation seed
    std::uint32_t flags = 0; ///< kServeFlag* bits

    /**
     * Requested workload rows: bit i selects allWorkloads()[i].
     * All-ones (the default) is the full 32-workload suite.
     */
    std::uint32_t workloadMask = 0xffffffffu;

    /**
     * Requested metric columns: bit i selects schema metric i.
     * 0 means the full Table II set (the common case stays the
     * byte-identical full-width CSV).
     */
    std::uint64_t metricMask = 0;

    /**
     * Machine geometry as an index into machinePresets() (0 is the
     * Table III default, so a v1 record — which lacks the field —
     * loads as the machine every v1 request implicitly meant).
     */
    std::uint32_t machine = 0;

    std::uint32_t reserved0 = 0; ///< padding, must be 0 on the wire
};

static_assert(sizeof(RequestRecord) == 40,
              "RequestRecord is the on-disk log format");

/** Scale name of a record's scale field; fatal on junk values. */
std::string serveScaleName(std::uint32_t scale);

/** Scale field value of a scale name; fatal on unknown names. */
std::uint32_t serveScaleIndex(const std::string &name);

/**
 * Preset name of a record's machine field; Error(InvalidConfig) on
 * indices beyond the registry (a log from a newer build).
 */
std::string serveMachineName(std::uint32_t machine);

/**
 * Machine field value of a preset name. Error(UnknownName) for
 * non-preset names, including override specs — the wire carries
 * registry presets only.
 */
std::uint32_t serveMachineIndex(const std::string &name);

/** Workload names selected by `mask`, in allWorkloads() order. */
std::vector<std::string> workloadNamesFromMask(std::uint32_t mask);

/**
 * Schema metric names selected by `mask`, in schema order; empty for
 * mask 0 (the full set).
 */
std::vector<std::string> metricNamesFromMask(std::uint64_t mask);

/**
 * Parse one protocol line into a record. Raises
 * Error(InvalidConfig) on unknown verbs, unknown keys, unknown
 * workload/metric names, or malformed values.
 */
RequestRecord parseRequestLine(const std::string &line);

/** The canonical text form of a record (parses back identically). */
std::string formatRequestLine(const RequestRecord &req);

/** Magic of a binary request log ("BRQ1" little-endian). */
constexpr std::uint32_t kRequestLogMagic = 0x31515242u;

/**
 * Version of the binary log layout. v1 records are 32 bytes (no
 * machine field); the loader still accepts v1 logs, resolving every
 * record to the default machine, so pre-DSE logs stay replayable.
 */
constexpr std::uint32_t kRequestLogVersion = 2;

/** Byte size of one record in a v1 log (no machine/reserved tail). */
constexpr std::size_t kRequestRecordV1Bytes = 32;

/**
 * Write a whole request log: header (magic, version, count) plus
 * packed records. Raises Error(Io) when the file cannot be written.
 */
void storeRequestLog(const std::string &path,
                     const std::vector<RequestRecord> &requests);

/**
 * Load a request log. Raises Error(Io) on unreadable files, bad
 * magic, unsupported versions, truncated records, or trailing bytes
 * beyond the declared count.
 */
std::vector<RequestRecord> loadRequestLog(const std::string &path);

/**
 * Append-friendly log writer for the daemon: writes the header up
 * front and patches the record count after every append, so a
 * crashed daemon leaves a loadable prefix instead of a torn file.
 */
class RequestLogWriter
{
  public:
    /** Create/truncate the log at `path`; Error(Io) on failure. */
    explicit RequestLogWriter(const std::string &path);
    ~RequestLogWriter();

    RequestLogWriter(const RequestLogWriter &) = delete;
    RequestLogWriter &operator=(const RequestLogWriter &) = delete;

    /** Append one record and update the header count. */
    void append(const RequestRecord &req);

    /** Records appended so far. */
    std::uint32_t count() const { return count_; }

  private:
    struct Impl;
    Impl *impl_;
    std::uint32_t count_ = 0;
};

} // namespace bds

#endif // BDS_SERVE_REQUEST_H
