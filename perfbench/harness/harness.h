/**
 * @file
 * Shared pieces of the benchmark harness (bds_perfbench).
 *
 * One invocation of the harness is one repetition of one workload in
 * a fresh process and a fresh output directory; perfbench/run.py
 * starts it, reads its rusage from wait4(), checks its outputs and
 * aggregates repetitions. The harness writes result.json (timings,
 * deterministic work counters, build), the outputs the checks read
 * (matrix.csv, matrix.hex, payload_<cell>.csv) and, when traced,
 * spans.jsonl.
 */

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bds/core.h"
#include "bds/sample.h"
#include "bds/workloads.h"

namespace perfbench {

/** `--key value` flags; a flag followed by another flag is a switch. */
class Args
{
  public:
    Args(int argc, char **argv, int first);

    bool has(const std::string &key) const;
    std::string get(const std::string &key,
                    const std::string &fallback = {}) const;
    std::uint64_t num(const std::string &key,
                      std::uint64_t fallback) const;

  private:
    std::map<std::string, std::string> kv_;
};

/** Flat JSON object, written in insertion order. */
class JsonOut
{
  public:
    void num(const std::string &key, double v);
    void count(const std::string &key, std::uint64_t v);
    void str(const std::string &key, const std::string &v);
    void raw(const std::string &key, const std::string &json);
    std::string text() const;
    void write(const std::string &path) const;

  private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

/** The build this harness came from (compiler, build type, flags). */
std::string buildJson();

/** Seconds between two nowNs() stamps. */
double seconds(std::int64_t from, std::int64_t to);

/** Write `text` to `path`; throws on failure. */
void writeFile(const std::string &path, const std::string &text);

/** The matrix in the result store's CSV layout (one row per name). */
std::string matrixCsv(const bds::Matrix &m,
                      const std::vector<std::string> &names);

/** Every matrix entry as a hexfloat: the bitwise identity record. */
std::string matrixHex(const bds::Matrix &m);

/**
 * Drive every workload of `runner` through each layer's public entry
 * points on their own, under spans named after the layer, on
 * `threads` workers (one workload per task). Returns the probes'
 * work counters as a JSON object (see ledger.cc).
 */
std::string runLedger(const bds::WorkloadRunner &runner,
                      unsigned threads);

/** One characterization cell a serve client may request. */
struct MixCell
{
    std::uint64_t seed = 42;
    std::string machine = "default";
    bool sampled = false;
};

/** `times` requests in a row for cell `cell`. */
struct MixRun
{
    std::size_t cell = 0;
    std::size_t times = 1;
};

/** A closed-loop serve load: who requests which cell, in order. */
struct MixPlan
{
    std::vector<MixCell> cells;
    std::vector<MixRun> writer;    ///< client 0's requests
    std::vector<MixRun> reader;    ///< client 1's (may be empty)
    std::uint64_t budgetBytes = 0; ///< store byte budget (0 = none)
};

/**
 * Run `plan` against a ServeEngine over a fresh store in `storeDir`
 * that computes misses one at a time on `computeThreads` threads.
 * Client 1 starts after client 0's first reply. Writes
 * payload_<cell>.csv per requested cell into `outDir` and returns
 * the mix's result fields (latencies, counters, identity). `ready`
 * is stamped when the engine is open and the clients are about to
 * send their first request.
 */
JsonOut runMix(const MixPlan &plan, unsigned computeThreads,
               const std::string &storeDir, const std::string &outDir,
               std::int64_t *ready, bool setupOnly);

/** The sweep / sampled-sweep repetition (`bds_perfbench sweep`). */
int sweepMain(const Args &args);

/** The serve-mix repetition (`bds_perfbench serve`). */
int serveMain(const Args &args);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
