/**
 * @file
 * The serve-mix repetition: a closed loop of two clients, each a
 * thread that waits for its reply before sending its next request
 * to one in-process ServeEngine over a fresh store directory.
 *
 * There are three quick-scale cells, one per machine preset
 * (kPresets), each on a data seed run.py draws from the workload
 * seed: cell 0 is hot, cells 1 and 2 are cold. The writer client
 * computes the hot cell first, then sends runs of hot hits around
 * one request for each cold cell, and ends on a long run of hot
 * hits. The reader client starts after the writer's first reply and
 * sends only hot hits. The store's byte budget (--budget) holds two
 * cells, so the second cold publish evicts the first cold cell, the
 * least recently used. Every count is fixed: 3 computes, 1 eviction,
 * 3 publishes, and every other request is a hit. Misses compute one
 * at a time. Hits take most of a repetition: over half of its CPU
 * time, and the second half of its wall time comes after the last
 * miss, when only hits run.
 *
 * Every response for a cell must carry the same bytes; the first one
 * is written to payload_<cell>.csv for run.py to hash against the
 * reference of that cell.
 */

#include <time.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <thread>

#include "bds/serve.h"
#include "harness.h"
#include "spans.h"

namespace perfbench {

namespace {

/** Machine presets of the cells, in cell order (run.py's SERVE_PRESETS). */
const char *const kPresets[] = {"default", "cores-2", "l3-4m"};

constexpr std::size_t kWriterHits = 3000;       ///< hot hits after each early miss
constexpr std::size_t kWriterTailHits = 120000; ///< hot hits after the last miss
constexpr std::size_t kReaderHits = 220000;     ///< the reader's hot hits

/** One client's observations. */
struct ClientLog
{
    std::vector<double> hitSeconds;
    std::vector<double> missSeconds;
    double hitCpuSeconds = 0.0;     ///< this thread's CPU in hits
    std::int64_t lastMissEnd = 0;   ///< nowNs() after its last miss
    std::uint64_t errors = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t bytesWritten = 0; ///< entry files its misses wrote
    std::string firstError;
};

/** CPU time of the calling thread. */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec)
        + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** The first payload served for each cell, set once under a lock. */
class PayloadBook
{
  public:
    explicit PayloadBook(std::size_t cells) : first_(cells), set_(cells) {}

    /** True when `payload` matches the cell's first payload. */
    bool check(std::size_t cell, std::string &&payload)
    {
        const std::string *first = nullptr;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!set_[cell]) {
                first_[cell] = std::move(payload);
                set_[cell] = true;
                return true;
            }
            first = &first_[cell];
        }
        return *first == payload;
    }

    void write(const std::string &outDir) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t i = 0; i < first_.size(); ++i)
            if (set_[i])
                writeFile(outDir + "/payload_" + std::to_string(i)
                              + ".csv",
                          first_[i]);
    }

  private:
    mutable std::mutex mutex_; ///< guards first_ and set_
    std::vector<std::string> first_;
    std::vector<bool> set_;
};

/** Nearest-rank percentile of sorted samples (0 when empty). */
double
percentile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    rank = std::clamp<std::size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
}

std::string
latencyJson(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    JsonOut j;
    j.count("count", samples.size());
    j.num("p50_s", percentile(samples, 0.50));
    j.num("p99_s", percentile(samples, 0.99));
    j.num("max_s", samples.empty() ? 0.0 : samples.back());
    return j.text();
}

/** The serve-mix load over cells on data seeds `seeds` (file comment). */
MixPlan
serveMixPlan(const std::vector<std::uint64_t> &seeds,
             std::uint64_t budgetBytes)
{
    if (seeds.size() != std::size(kPresets))
        throw std::runtime_error("--seeds wants one data seed per cell");
    MixPlan plan;
    plan.budgetBytes = budgetBytes;
    for (std::size_t i = 0; i < seeds.size(); ++i)
        plan.cells.push_back({seeds[i], kPresets[i], false});
    plan.writer = {{0, 1 + kWriterHits},
                   {1, 1},
                   {0, kWriterHits},
                   {2, 1},
                   {0, kWriterTailHits}};
    plan.reader = {{0, kReaderHits}};
    return plan;
}

/** Number of requests in `seq`. */
std::size_t
requestCount(const std::vector<MixRun> &seq)
{
    std::size_t n = 0;
    for (const MixRun &run : seq)
        n += run.times;
    return n;
}

/** A comma-separated list of numbers. */
std::vector<std::uint64_t>
parseSeeds(const std::string &text)
{
    std::vector<std::uint64_t> out;
    std::istringstream in(text);
    std::string item;
    while (std::getline(in, item, ',')) {
        std::size_t used = 0;
        out.push_back(std::stoull(item, &used));
        if (used != item.size())
            throw std::runtime_error("--seeds: bad number " + item);
    }
    return out;
}

} // namespace

JsonOut
runMix(const MixPlan &plan, unsigned computeThreads,
       const std::string &storeDir, const std::string &outDir,
       std::int64_t *ready, bool setupOnly)
{
    std::filesystem::remove_all(storeDir);

    bds::RunConfig base;
    base.tool = "perfbench";
    base.scaleName = "quick";
    base.parallel.threads = computeThreads;
    base.serve.storeDir = storeDir;
    base.serve.maxInFlight = 1;
    base.serve.maxStoreBytes = plan.budgetBytes;
    base.manifest = false;
    bds::resetStoreStats();
    bds::ServeEngine engine(base);

    std::vector<bds::RequestRecord> requests;
    for (const MixCell &c : plan.cells) {
        bds::RequestRecord req;
        req.op = static_cast<std::uint32_t>(bds::ServeOp::Characterize);
        req.scale = bds::serveScaleIndex("quick");
        req.seed = c.seed;
        req.machine = bds::serveMachineIndex(c.machine);
        req.flags = c.sampled ? std::uint32_t{bds::kServeFlagSampled} : 0u;
        requests.push_back(req);
    }
    PayloadBook book(plan.cells.size());
    ClientLog logs[2];

    // The reader starts once the writer's first reply is in.
    std::mutex barrierMutex; ///< guards released
    std::condition_variable barrierCv;
    bool released = false;
    auto release = [&] {
        {
            std::lock_guard<std::mutex> lock(barrierMutex);
            released = true;
        }
        barrierCv.notify_all();
    };

    // One request: time it, count it as a hit or a miss, and check
    // its payload against the cell's first one.
    auto request = [&](ClientLog &log, std::size_t cell, std::string id,
                       double *cpu) {
        const std::int64_t t0 = nowNs();
        bds::ServeResponse resp;
        {
            Span span("serve.handle", std::move(id));
            resp = engine.handle(requests[cell]);
        }
        const std::int64_t t1 = nowNs();
        const double cpuAfter = threadCpuSeconds();
        if (!resp.ok) {
            if (log.errors++ == 0)
                log.firstError = resp.message;
        } else {
            if (resp.hit) {
                log.hitSeconds.push_back(seconds(t0, t1));
                log.hitCpuSeconds += cpuAfter - *cpu;
            } else {
                log.missSeconds.push_back(seconds(t0, t1));
                log.lastMissEnd = t1;
                std::error_code ec;
                const auto size = std::filesystem::file_size(
                    engine.store().entryPath(resp.hashHex), ec);
                if (!ec)
                    log.bytesWritten += size;
            }
            if (!book.check(cell, std::move(resp.payload)))
                ++log.mismatches;
        }
        *cpu = cpuAfter;
    };

    auto client = [&](unsigned who, const std::vector<MixRun> &seq) {
        ClientLog &log = logs[who];
        log.hitSeconds.reserve(requestCount(seq));
        std::string tag = "c";
        tag += std::to_string(who);
        tag += ".r";
        double cpu = threadCpuSeconds();
        std::size_t k = 0;
        for (const MixRun &run : seq)
            for (std::size_t t = 0; t < run.times; ++t, ++k) {
                std::string id;
                if (spansEnabled())
                    id = tag + std::to_string(k);
                request(log, run.cell, std::move(id), &cpu);
                if (who == 0 && k == 0)
                    release();
            }
    };

    *ready = nowNs();
    JsonOut out;
    if (setupOnly)
        return out;
    {
        Span top("serve.mix");
        const std::int64_t parent = currentSpan();
        std::thread writer([&] {
            SpanParent within(parent);
            try {
                client(0, plan.writer);
            } catch (const std::exception &e) {
                ++logs[0].errors;
                logs[0].firstError = e.what();
            }
            release();
        });
        std::thread reader([&] {
            SpanParent within(parent);
            {
                std::unique_lock<std::mutex> lock(barrierMutex);
                barrierCv.wait(lock, [&] { return released; });
            }
            try {
                client(1, plan.reader);
            } catch (const std::exception &e) {
                ++logs[1].errors;
                logs[1].firstError = e.what();
            }
        });
        writer.join();
        reader.join();
    }
    const std::int64_t end = nowNs();
    const bds::ServeStats stats = engine.stats();

    // Publish cost, timed around the store's own public call: every
    // resident cell re-published a few times.
    std::vector<double> publishSeconds;
    for (const bds::RequestRecord &req : requests) {
        const std::string hash =
            bds::runConfigHashHex(engine.requestConfig(req));
        bds::ResultEntry entry;
        if (!engine.store().load(hash, &entry))
            continue;
        for (int rep = 0; rep < 5; ++rep) {
            const std::int64_t t0 = nowNs();
            Span span("store.publish", hash);
            engine.store().store(entry);
            publishSeconds.push_back(seconds(t0, nowNs()));
        }
    }
    std::sort(publishSeconds.begin(), publishSeconds.end());
    book.write(outDir);

    std::vector<double> hits = logs[0].hitSeconds;
    hits.insert(hits.end(), logs[1].hitSeconds.begin(),
                logs[1].hitSeconds.end());
    std::vector<double> misses = logs[0].missSeconds;
    misses.insert(misses.end(), logs[1].missSeconds.begin(),
                  logs[1].missSeconds.end());
    std::vector<bool> requested(plan.cells.size(), false);
    for (const auto *seq : {&plan.writer, &plan.reader})
        for (const MixRun &run : *seq)
            requested[run.cell] = true;
    const std::int64_t lastMiss =
        std::max(logs[0].lastMissEnd, logs[1].lastMissEnd);

    out.num("wall_s", seconds(*ready, end));
    out.count("requests",
              requestCount(plan.writer) + requestCount(plan.reader));
    out.count("errors", logs[0].errors + logs[1].errors);
    out.str("first_error", logs[0].firstError.empty()
                               ? logs[1].firstError
                               : logs[0].firstError);
    out.count("payload_mismatches",
              logs[0].mismatches + logs[1].mismatches);
    out.count("cells_requested",
              static_cast<std::uint64_t>(
                  std::count(requested.begin(), requested.end(), true)));
    out.raw("hit", latencyJson(hits));
    out.raw("miss", latencyJson(misses));
    out.num("hit_cpu_s", logs[0].hitCpuSeconds + logs[1].hitCpuSeconds);
    out.num("hits_only_s", lastMiss ? seconds(lastMiss, end) : 0.0);
    out.count("hits", stats.hits);
    out.count("computes", stats.misses);
    out.count("shed", stats.shed);
    out.count("publishes", stats.store.publishes);
    out.count("evictions", stats.store.evicted);
    out.count("evicted_bytes", stats.store.evictedBytes);
    out.count("bytes_written",
              logs[0].bytesWritten + logs[1].bytesWritten);
    out.num("publish_p50_s", percentile(publishSeconds, 0.5));
    out.count("publish_samples", publishSeconds.size());
    return out;
}

int
serveMain(const Args &args)
{
    const std::string outDir = args.get("out", ".");
    const unsigned threads = static_cast<unsigned>(args.num("threads", 2));
    const MixPlan plan =
        serveMixPlan(parseSeeds(args.get("seeds")), args.num("budget", 0));
    std::int64_t ready = 0;
    JsonOut mix = runMix(plan, threads, outDir + "/store", outDir, &ready,
                         args.has("setup-only"));

    JsonOut res;
    res.num("setup_s",
            seconds(static_cast<std::int64_t>(args.num("t0", ready)),
                    ready));
    res.raw("build", buildJson());
    res.count("threads", threads);
    res.raw("mix", mix.text());
    if (spansEnabled() && !args.has("setup-only")) {
        // The op-path layers a miss runs, probed on the hot cell, and
        // the pipeline on that cell's payload.
        const MixCell &hot = plan.cells.front();
        bds::RunConfig cfg;
        cfg.scaleName = "quick";
        cfg.seed = hot.seed;
        cfg.machineSpec = hot.machine;
        cfg.parallel.threads = threads;
        const bds::WorkloadRunner runner =
            bds::WorkloadRunner::fromRunConfig(cfg);
        res.raw("ledger", runLedger(runner, threads));
        const bds::MetricTable table =
            bds::readMetricsCsvFile(outDir + "/payload_0.csv");
        {
            Span span("core.runPipeline");
            bds::runPipeline(
                bds::alignMetricTable(table, bds::MetricSet::tableII()),
                table.names, bds::pipelineOptionsFor(cfg));
        }
        writeSpans(outDir + "/spans.jsonl");
    }
    res.write(outDir + "/result.json");
    return 0;
}

} // namespace perfbench
