#include "serve/engine.h"

#include <chrono>
#include <condition_variable>
#include <ctime>
#include <sstream>

#include "core/csvio.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "metrics/set.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/session.h"
#include "obs/trace.h"
#include "sample/characterizer.h"
#include "serve/confighash.h"
#include "workloads/registry.h"

namespace bds {

namespace {

/** Current wall-clock time as ISO-8601 UTC. */
std::string
isoNow()
{
    std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    return buf;
}

} // namespace

/**
 * Counting semaphore bounding concurrent sweep computations, with a
 * bounded admission queue in front. Cache hits never take a slot, so
 * a slow cold cell cannot starve warm traffic; a compute arriving
 * with maxQueue others already waiting is shed with a typed
 * Overloaded error instead of queueing unboundedly.
 */
struct ServeEngine::Gate
{
    Gate(unsigned slots, unsigned maxQueue)
        : free(slots), maxQueue(maxQueue)
    {
    }

    std::mutex mutex;
    std::condition_variable cv;
    unsigned free;
    unsigned waiting = 0;
    const unsigned maxQueue;

    struct Slot
    {
        explicit Slot(Gate &g) : gate(g)
        {
            std::unique_lock<std::mutex> lock(gate.mutex);
            if (gate.free == 0) {
                // Shed before blocking: the admission decision is
                // made while the queue state is visible, so the
                // bound is exact, not best-effort.
                if (gate.waiting >= gate.maxQueue)
                    BDS_RAISE(ErrorCode::Overloaded,
                              "admission queue full ("
                                  << gate.waiting
                                  << " computes already waiting, "
                                     "max_queue="
                                  << gate.maxQueue << ")");
                ++gate.waiting;
                gate.cv.wait(lock, [&] { return gate.free > 0; });
                --gate.waiting;
            }
            --gate.free;
        }
        ~Slot()
        {
            {
                std::lock_guard<std::mutex> lock(gate.mutex);
                ++gate.free;
            }
            gate.cv.notify_one();
        }
        Gate &gate;
    };
};

ServeEngine::ServeEngine(RunConfig base, Session *session)
    : base_(std::move(base)),
      store_(base_.serve.storeDir, base_.serve.maxStoreBytes),
      session_(session),
      maxInFlight_(base_.serve.maxInFlight
                       ? base_.serve.maxInFlight
                       : ParallelOptions{0}.resolved()),
      gate_(std::make_shared<Gate>(maxInFlight_, base_.serve.maxQueue))
{
}

RunConfig
ServeEngine::requestConfig(const RequestRecord &req) const
{
    RunConfig cfg = base_;
    cfg.scaleName = serveScaleName(req.scale);
    cfg.seed = req.seed;
    cfg.machineSpec = serveMachineName(req.machine);
    cfg.sampling.enabled = (req.flags & kServeFlagSampled) != 0;
    // The metric/workload masks are response projections, not part
    // of the cell (see serve/confighash.h).
    cfg.metricNames.clear();
    return cfg;
}

ServeEngine::CellKey
ServeEngine::cellKey(const RequestRecord &req)
{
    return {req.scale, req.seed, req.machine,
            (req.flags & kServeFlagSampled) != 0};
}

ComputedResult
ServeEngine::computeCell(const RunConfig &cfg, const std::string &hashHex)
{
    TraceSpan span("serve.compute");
    // Everything — machine geometry included — flows from the
    // request's RunConfig; nothing is hard-coded here.
    WorkloadRunner runner = WorkloadRunner::fromRunConfig(cfg);

    const auto t0 = std::chrono::steady_clock::now();
    Matrix metrics;
    SweepReport report;
    if (cfg.sampling.enabled) {
        SampledCharacterizer sampler(runner, cfg.sampling);
        metrics = sampler.runAll(nullptr, &report);
    } else {
        metrics = runner.runAll(nullptr, nullptr, &report);
    }
    const double seconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0)
            .count();

    ComputedResult out;
    out.cacheable = report.allOk();
    if (!report.allOk()) {
        out.quarantined = report.quarantinedNames();
        std::lock_guard<std::mutex> lock(mutex_);
        if (session_)
            session_->recordSweep(report);
    }
    out.entry.hashHex = hashHex;
    out.entry.canonicalConfig = canonicalRunConfig(cfg);
    out.entry.names = report.survivorNames();

    // Exactly the batch tools' CSV: full Table II columns by schema
    // name, 6-significant-digit cells (core/report.cc).
    PipelineResult res;
    res.names = out.entry.names;
    res.rawMetrics = metrics;
    std::ostringstream csv;
    writeMetricsCsv(csv, res);
    out.entry.csv = csv.str();

    std::ostringstream mf;
    mf << "{\"tool\": \"" << jsonEscape(base_.tool)
       << "\", \"bds_version\": \"" << jsonEscape(bdsVersion())
       << "\", \"created\": \"" << isoNow() << "\", \"hash\": \""
       << out.entry.hashHex << "\", \"scale\": \"" << cfg.scaleName
       << "\", \"seed\": " << cfg.seed << ", \"machine\": \""
       << jsonEscape(cfg.machineSpec) << "\", \"sampled\": "
       << (cfg.sampling.enabled ? "true" : "false")
       << ", \"workloads\": " << out.entry.names.size()
       << ", \"compute_seconds\": " << jsonNumber(seconds) << "}\n";
    out.entry.manifestJson = mf.str();
    return out;
}

std::string
ServeEngine::projectPayload(std::string csv, const RequestRecord &req)
{
    const bool all_rows = req.workloadMask == 0xffffffffu;
    if (all_rows && req.metricMask == 0)
        return csv; // the byte-identical full-width fast path

    std::istringstream in(csv);
    MetricTable table = readMetricsCsv(in);
    MetricSet set =
        req.metricMask
            ? MetricSet::fromNames(metricNamesFromMask(req.metricMask))
            : MetricSet::tableII();
    Matrix aligned = alignMetricTable(table, set);

    std::vector<std::size_t> rows;
    if (all_rows) {
        for (std::size_t i = 0; i < table.names.size(); ++i)
            rows.push_back(i);
    } else {
        // Keep the cell's row order; requested workloads missing
        // from the entry (quarantined) are simply absent.
        for (const std::string &name :
             workloadNamesFromMask(req.workloadMask))
            for (std::size_t i = 0; i < table.names.size(); ++i)
                if (table.names[i] == name) {
                    rows.push_back(i);
                    break;
                }
    }

    PipelineResult res;
    res.metrics = set;
    res.metricLabels = set.names();
    res.rawMetrics = Matrix(rows.size(), set.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
        res.names.push_back(table.names[rows[r]]);
        for (std::size_t c = 0; c < set.size(); ++c)
            res.rawMetrics(r, c) = aligned(rows[r], c);
    }
    std::ostringstream out;
    writeMetricsCsv(out, res);
    return out.str();
}

ServeResponse
ServeEngine::handle(const RequestRecord &req)
{
    Tracer::global().counter("serve.requests", 1);
    TraceSpan span("serve.request");
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.requests;
    }

    ServeResponse resp;
    const auto t0 = std::chrono::steady_clock::now();
    try {
        if (req.op != static_cast<std::uint32_t>(ServeOp::Characterize))
            BDS_RAISE(ErrorCode::InvalidConfig,
                      "unsupported request op " << req.op);
        // The cell key is a pure function of the request's key
        // fields, so a known cell skips resolving and hashing.
        const CellKey key = cellKey(req);
        bool known = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = hashes_.find(key);
            if (it != hashes_.end()) {
                resp.hashHex = it->second;
                known = true;
            }
        }
        if (!known)
            resp.hashHex = runConfigHashHex(requestConfig(req));

        ComputedResult result;
        const bool bypass = base_.serve.bypassStore
            || (req.flags & kServeFlagBypass);
        if (bypass) {
            Tracer::global().counter("serve.bypass", 1);
            Gate::Slot slot(*gate_);
            result = computeCell(requestConfig(req), resp.hashHex);
        } else {
            result = store_.getOrCompute(
                resp.hashHex,
                [&]() -> ComputedResult {
                    Gate::Slot slot(*gate_);
                    return computeCell(requestConfig(req),
                                       resp.hashHex);
                },
                &resp.hit);
        }
        resp.quarantined = std::move(result.quarantined);
        resp.payload = projectPayload(std::move(result.entry.csv), req);
        resp.ok = true;
        if (!known) {
            std::lock_guard<std::mutex> lock(mutex_);
            hashes_.emplace(key, resp.hashHex);
        }
    } catch (const Error &e) {
        resp.code = e.code();
        resp.message = e.what();
        if (e.code() == ErrorCode::Overloaded) {
            Tracer::global().counter("serve.shed", 1);
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.shed;
        }
    } catch (const FatalError &e) {
        resp.code = ErrorCode::InvalidConfig;
        resp.message = e.what();
    } catch (const std::exception &e) {
        resp.code = ErrorCode::Internal;
        resp.message = e.what();
    }
    resp.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();

    Tracer::global().counter(resp.ok ? (resp.hit ? "serve.hits"
                                                 : "serve.misses")
                                     : "serve.errors",
                             1);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!resp.ok)
            ++stats_.errors;
        else if (resp.hit)
            ++stats_.hits;
        else
            ++stats_.misses;
        if (resp.ok
            && (base_.serve.bypassStore
                || (req.flags & kServeFlagBypass)))
            ++stats_.bypassed;
    }
    return resp;
}

ServeStats
ServeEngine::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ServeStats out = stats_;
    out.store = storeStats();
    return out;
}

} // namespace bds
