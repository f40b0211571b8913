/**
 * @file
 * The sweep-full and sweep-sampled repetitions: the 32-workload
 * characterization sweep (WorkloadRunner::runAll, or
 * SampledCharacterizer::runAll) followed by runPipeline, as the
 * repo's tools run it. Traced repetitions run the same calls under
 * one span, then the per-layer probes (ledger.cc) and a small serve
 * probe on the sweep's own cell.
 */

#include <fstream>
#include <sstream>

#include "bds/serve.h"
#include "harness.h"
#include "spans.h"

namespace perfbench {

namespace {

/** What a sweep reports besides its matrix. */
struct SweepCounters
{
    std::uint64_t ops = 0;       ///< micro-ops the sweep simulated
    std::uint64_t detailOps = 0; ///< of those, with live counters
    std::uint64_t warmOps = 0;   ///< of those, counter-frozen
    std::uint64_t l2Misses = 0;  ///< (estimated) L2 misses, summed
};

bds::Matrix
runFull(const bds::WorkloadRunner &runner, SweepCounters *out)
{
    std::vector<bds::WorkloadResult> details;
    const bds::Matrix m = runner.runAll(&details);
    for (const bds::WorkloadResult &r : details) {
        out->ops += r.counters.uops;
        out->l2Misses += r.counters.l2Misses;
    }
    out->detailOps = out->ops;
    return m;
}

bds::Matrix
runSampled(const bds::WorkloadRunner &runner,
           const bds::SamplingOptions &opts, SweepCounters *out)
{
    std::vector<bds::SampledWorkloadResult> details;
    const bds::Matrix m =
        bds::SampledCharacterizer(runner, opts).runAll(&details);
    for (const bds::SampledWorkloadResult &r : details) {
        out->ops += r.stats.totalOps;
        out->detailOps += r.stats.detailOps;
        out->warmOps += r.stats.warmOps;
        out->l2Misses += r.counters.l2Misses;
    }
    return m;
}

std::size_t
countHeld(const std::vector<bds::Finding> &findings)
{
    std::size_t held = 0;
    for (const bds::Finding &f : findings)
        held += f.pass ? 1 : 0;
    return held;
}

/** Read a matrix written by matrixHex(). */
bds::Matrix
readMatrixHex(const std::string &path, std::size_t rows, std::size_t cols)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    bds::Matrix m(rows, cols);
    std::string line;
    for (std::size_t r = 0; r < rows; ++r) {
        if (!std::getline(in, line))
            throw std::runtime_error(path + ": too few rows");
        std::istringstream ls(line);
        std::string cell;
        for (std::size_t c = 0; c < cols; ++c) {
            if (!std::getline(ls, cell, ','))
                throw std::runtime_error(path + ": too few columns");
            std::size_t used = 0;
            m(r, c) = std::stod(cell, &used);
            if (used != cell.size())
                throw std::runtime_error(path + ": bad value " + cell);
        }
    }
    return m;
}

/**
 * Compare a sweep against the full-detail reference matrix of the
 * same seed (matrixHex() layout, so bit-exact): mean relative error
 * (compareMetrics, as bench/sampled_vs_full reports it) and how many
 * paper findings get the reference's verdict.
 */
void
compareToReference(const bds::Matrix &m,
                   const std::vector<std::string> &names,
                   const std::vector<bds::Finding> &findings,
                   const std::string &refPath,
                   const bds::PipelineOptions &popts, JsonOut *out)
{
    const bds::Matrix ref = readMatrixHex(refPath, m.rows(), m.cols());
    double err = 0.0;
    for (std::size_t r = 0; r < m.rows(); ++r) {
        bds::MetricVector full{}, got{};
        for (std::size_t c = 0; c < bds::kNumMetrics; ++c) {
            full[c] = ref(r, c);
            got[c] = m(r, c);
        }
        err += bds::compareMetrics(full, got).meanError;
    }
    out->num("err_mean", err / static_cast<double>(m.rows()));

    const std::vector<bds::Finding> refFindings =
        bds::evaluatePaperFindings(bds::runPipeline(ref, names, popts));
    std::size_t same = 0;
    for (std::size_t i = 0; i < findings.size(); ++i)
        same += findings[i].pass == refFindings[i].pass ? 1 : 0;
    out->count("findings_preserved", same);
}

/**
 * The serve layer on the sweep's own cell: one miss (compute +
 * publish) and a thousand hits through an in-process ServeEngine.
 */
std::string
serveProbe(const bds::RunConfig &cfg, const std::string &outDir)
{
    MixPlan plan;
    plan.cells.push_back(
        {cfg.seed, cfg.machineSpec, cfg.sampling.enabled});
    plan.writer = {{0, 1001}};
    std::int64_t ready = 0;
    Span span("serve.probe");
    return runMix(plan, cfg.parallel.threads, outDir + "/probe_store",
                  outDir, &ready, false)
        .text();
}

} // namespace

int
sweepMain(const Args &args)
{
    const std::string outDir = args.get("out", ".");
    const std::string mode = args.get("mode", "full");
    if (mode != "full" && mode != "sampled")
        throw std::runtime_error("--mode must be full or sampled");
    const unsigned threads =
        static_cast<unsigned>(args.num("threads", 2));

    bds::RunConfig cfg;
    cfg.tool = "perfbench";
    cfg.scaleName = args.get("scale", "quick");
    cfg.seed = args.num("seed", 42);
    cfg.machineSpec = args.get("machine", "default");
    cfg.parallel.threads = threads;
    cfg.sampling.enabled = mode == "sampled";
    cfg.manifest = false;
    const bds::WorkloadRunner runner =
        bds::WorkloadRunner::fromRunConfig(cfg);
    const bds::PipelineOptions popts = bds::pipelineOptionsFor(cfg);
    std::vector<std::string> names;
    for (const bds::WorkloadId &id : bds::allWorkloads())
        names.push_back(id.name());

    JsonOut res;
    const std::int64_t ready = nowNs();
    res.num("setup_s",
            seconds(static_cast<std::int64_t>(args.num("t0", ready)),
                    ready));
    res.raw("build", buildJson());
    res.count("threads", threads);
    if (args.has("setup-only")) {
        res.write(outDir + "/result.json");
        return 0;
    }

    SweepCounters counters;
    bds::Matrix m;
    bds::PipelineResult pipe;
    {
        Span top("sweep", mode);
        m = mode == "full" ? runFull(runner, &counters)
                           : runSampled(runner, cfg.sampling, &counters);
        Span span("core.runPipeline");
        pipe = bds::runPipeline(m, names, popts);
    }
    const std::vector<bds::Finding> findings =
        bds::evaluatePaperFindings(pipe);
    res.num("wall_s", seconds(ready, nowNs()));
    res.count("workloads", m.rows());
    res.count("ops", counters.ops);
    res.count("detail_ops", counters.detailOps);
    res.count("warm_ops", counters.warmOps);
    res.count("l2_misses", counters.l2Misses);
    res.count("findings_total", findings.size());
    res.count("findings_held", countHeld(findings));
    writeFile(outDir + "/matrix.csv", matrixCsv(m, names));
    writeFile(outDir + "/matrix.hex", matrixHex(m));
    if (args.has("ref"))
        compareToReference(m, names, findings, args.get("ref"), popts,
                           &res);

    if (spansEnabled()) {
        res.raw("ledger", runLedger(runner, threads));
        res.raw("serve_probe", serveProbe(cfg, outDir));
        writeSpans(outDir + "/spans.jsonl");
    }
    res.write(outDir + "/result.json");
    return 0;
}

} // namespace perfbench
