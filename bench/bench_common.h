/**
 * @file
 * Shared plumbing for the figure/table bench binaries.
 *
 * Every paper-reproduction bench needs the same 32 x 45 metric
 * matrix. Simulating the whole suite takes minutes, so the first
 * bench to run caches the matrix as a CSV next to the working
 * directory and the rest load it. Delete the cache (or change any
 * result-relevant knob, see metricsCachePath) to force re-simulation.
 *
 * All configuration — scale, seed, threads, sampling, metric subset,
 * tracing and manifests — comes from bds::RunConfig (src/obs), the
 * single entry point that resolves BDS_* environment variables and
 * --flags. See src/obs/runconfig.h for the full knob list. The
 * matrix is bitwise identical for every BDS_THREADS value (see
 * docs/THREADING.md), so the cache stays valid across thread counts.
 *
 * A bench main is three lines of plumbing:
 *
 *   int main(int argc, char **argv) {
 *       bds::Session session(bdsbench::benchConfig("fig1", argc, argv));
 *       auto res = bdsbench::characterizedPipeline(session);
 *       ... print the table/figure to stdout ...
 *   }
 *
 * The Session destructor writes the run manifest (fig1.manifest.json)
 * and, when BDS_TRACE=1, the trace summary.
 */

#ifndef BDS_BENCH_COMMON_H
#define BDS_BENCH_COMMON_H

#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/utsname.h>
#endif

#include "common/log.h"
#include "core/csvio.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "obs/session.h"
#include "sample/characterizer.h"
#include "serve/confighash.h"
#include "uarch/machine.h"
#include "workloads/registry.h"

namespace bdsbench {

/**
 * Resolve the bench's RunConfig from the environment and command
 * line. Benches take no positional arguments, so any unconsumed
 * argument is fatal (RunConfig::resolve enforces this).
 */
inline bds::RunConfig
benchConfig(const std::string &tool, int argc = 0, char **argv = nullptr)
{
    return bds::RunConfig::resolve(tool, argc, argv);
}

/**
 * Resolve the session's machine geometry (--machine / BDS_MACHINE)
 * through the preset registry. Benches never construct NodeConfig
 * inline: the machine is an axis of the run configuration, and this
 * is the one funnel it flows through.
 */
inline bds::NodeConfig
benchMachine(const bds::RunConfig &cfg)
{
    return bds::resolveMachineSpec(cfg.machineSpec);
}

/**
 * Write the run-environment JSON object — "environment": {...} with
 * no trailing comma or newline — into a bench artifact. Performance
 * numbers are only comparable within one environment, so every
 * BENCH_*.json records where it was captured: core count, compiler,
 * build type and flags, and the kernel/arch.
 */
inline void
writeEnvironmentJson(std::ostream &os, const char *indent = "  ")
{
    os << indent << "\"environment\": {\n"
       << indent << "  \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << ",\n"
       << indent << "  \"compiler\": \""
#if defined(__clang__)
       << "clang " << __VERSION__
#elif defined(__GNUC__)
       << "gcc " << __VERSION__
#else
       << "unknown"
#endif
       << "\",\n"
#ifdef BDS_BUILD_TYPE
       << indent << "  \"build_type\": \"" << BDS_BUILD_TYPE << "\",\n"
#endif
#ifdef BDS_BUILD_FLAGS
       << indent << "  \"flags\": \"" << BDS_BUILD_FLAGS << "\",\n"
#endif
       << indent << "  \"os\": \"";
#if defined(__unix__) || defined(__APPLE__)
    utsname u{};
    if (::uname(&u) == 0)
        os << u.sysname << ' ' << u.release << ' ' << u.machine;
    else
        os << "unknown";
#else
    os << "unknown";
#endif
    os << "\"\n" << indent << "}";
}

/**
 * Load a cached metric matrix, matching columns against `set` by
 * canonical name (any column order works; extra columns are
 * ignored). Returns false — after printing why — when the file is
 * absent, lacks a required metric column, or has the wrong row
 * count, so the caller re-simulates instead of misreading positions.
 */
inline bool
loadMetricsCsv(const std::string &path, std::vector<std::string> &names,
               bds::Matrix &metrics,
               const bds::MetricSet &set = bds::MetricSet::tableII())
{
    std::ifstream in(path);
    if (!in)
        return false;
    try {
        bds::MetricTable table = bds::readMetricsCsv(in);
        if (table.names.size() != bds::allWorkloads().size()) {
            std::cerr << "[bench] ignoring cache " << path << ": "
                      << table.names.size() << " rows, expected "
                      << bds::allWorkloads().size() << "\n";
            return false;
        }
        metrics = bds::alignMetricTable(table, set);
        names = std::move(table.names);
        return true;
    } catch (const bds::FatalError &e) {
        // Stale or foreign file: say why, then re-simulate.
        std::cerr << "[bench] ignoring cache " << path << ": "
                  << e.what() << "\n";
        return false;
    }
}

/**
 * The cache file a configuration characterizes into. The name is
 * built from scale, seed, machine and the sampled flag; the default
 * machine keeps the legacy name (so seed-era caches stay warm and
 * the CI byte-identity gate compares like against like), any other
 * geometry adds its slug. Every other knob that can change the
 * matrix — the sampling knobs, the recovery policy and the
 * fault-injection spec — is covered only by the result store's
 * runConfigHash. When any of them is off its default, the name gains
 * that 16-hex hash, so a sampled run with its own interval size or a
 * retry-healed injected run never loads, or overwrites, the matrix
 * of the default configuration.
 */
inline std::string
metricsCachePath(const bds::RunConfig &cfg)
{
    std::string machine;
    if (!bds::isDefaultMachineSpec(cfg.machineSpec))
        machine = "_" + bds::machineSlug(cfg.machineSpec);
    bds::RunConfig named;
    named.scaleName = cfg.scaleName;
    named.seed = cfg.seed;
    named.machineSpec = cfg.machineSpec;
    named.sampling.enabled = cfg.sampling.enabled;
    std::string hash;
    if (bds::canonicalRunConfig(cfg) != bds::canonicalRunConfig(named))
        hash = "_" + bds::runConfigHashHex(cfg);
    return "bds_metrics_" + cfg.scaleName + "_"
        + std::to_string(cfg.seed) + machine
        + (cfg.sampling.enabled ? "_sampled" : "") + hash + ".csv";
}

/**
 * Characterize the 32 workloads (or load the cached matrix) and run
 * the paper's pipeline over it, under the session's configuration.
 * With sampling enabled the matrix comes from the sampled-simulation
 * path (src/sample) and is cached under a distinct name, so any
 * figure/table bench can run off sampled metrics side by side with
 * its full-run cache. The cache file and per-stage wall-clocks are
 * recorded on the session's manifest.
 */
inline bds::PipelineResult
characterizedPipeline(bds::Session &session)
{
    const bds::RunConfig &cfg = session.config();
    std::string cache = metricsCachePath(cfg);

    std::vector<std::string> names;
    bds::Matrix metrics;
    auto acquire_start = std::chrono::steady_clock::now();
    auto acquireSeconds = [acquire_start] {
        return std::chrono::duration<double>(
            std::chrono::steady_clock::now() - acquire_start).count();
    };
    if (loadMetricsCsv(cache, names, metrics)) {
        std::cerr << "[bench] loaded cached metrics from " << cache
                  << '\n';
        session.recordStage("load-cache", acquireSeconds());
    } else {
        std::cerr << "[bench] characterizing 32 workloads at scale '"
                  << cfg.scaleName << "' on "
                  << cfg.parallel.resolved() << " thread(s)"
                  << (cfg.sampling.enabled ? ", sampled" : "")
                  << " (cache: " << cache << ")\n";
        bds::WorkloadRunner runner =
            bds::WorkloadRunner::fromRunConfig(cfg);
        bds::SweepReport report;
        if (cfg.sampling.enabled) {
            bds::SampledCharacterizer sampler(runner, cfg.sampling);
            metrics = sampler.runAll(nullptr, &report);
        } else {
            bds::SweepTiming timing;
            metrics = runner.runAll(nullptr, &timing, &report);
            std::cerr << "[bench] characterized "
                      << report.survivors.size() << " workloads in "
                      << timing.totalSeconds << " s on "
                      << timing.threads << " thread(s)\n";
        }
        session.recordSweep(report);
        names = report.survivorNames();

        if (report.allOk()) {
            bds::PipelineResult tmp;
            tmp.names = names;
            tmp.rawMetrics = metrics;
            std::ofstream out(cache);
            bds::writeMetricsCsv(out, tmp);
        } else {
            // A quarantined sweep is incomplete by design — never let
            // its shrunken matrix masquerade as the 32-row cache.
            std::cerr << "[bench] not caching: "
                      << (bds::allWorkloads().size() - names.size())
                      << " workload(s) quarantined\n";
            cache.clear();
        }
        session.recordStage("characterize", acquireSeconds());
    }
    if (!cache.empty())
        session.noteArtifact(cache);

    bds::StageTimer stage(session, "analyze");
    return bds::runPipeline(metrics, names,
                            bds::pipelineOptionsFor(cfg));
}

} // namespace bdsbench

#endif // BDS_BENCH_COMMON_H
