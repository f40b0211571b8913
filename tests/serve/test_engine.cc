/**
 * @file
 * ServeEngine tests: the serving contract end to end, in process.
 * The expensive quick-scale sweep runs once in a shared fixture;
 * every case asserts against it — miss-then-hit behaviour,
 * byte-identity with the batch path's CSV, row/column projection,
 * cache bypass, per-request fault isolation (an injected failure is
 * an error response, never a dead engine), and the serve.* counters.
 */

#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "core/csvio.h"
#include "core/pipeline.h"
#include "core/report.h"
#include "fault/inject.h"
#include "obs/trace.h"
#include "serve/confighash.h"
#include "serve/engine.h"
#include "workloads/registry.h"
#include "scratch_path.h"

namespace bds {
namespace {

/** The engine's base config: quick scale, cache in a scratch dir. */
RunConfig
engineConfig(const std::string &cacheName)
{
    RunConfig cfg;
    cfg.tool = "test_engine";
    cfg.scaleName = "quick";
    cfg.seed = 42;
    cfg.manifest = false;
    cfg.serve.enabled = true;
    cfg.serve.storeDir = bdstest::scratchPath(cacheName);
    return cfg;
}

RequestRecord
quickRequest(std::uint64_t seed = 42)
{
    RequestRecord req;
    req.scale = 0; // quick
    req.seed = seed;
    return req;
}

/** Wipe a cache directory created by a test (flat *.result files). */
void
wipeCache(const RunConfig &cfg, ServeEngine *engine,
          const std::vector<RequestRecord> &reqs)
{
    for (const RequestRecord &req : reqs) {
        const std::string hash =
            runConfigHashHex(engine->requestConfig(req));
        std::remove(
            (cfg.serve.storeDir + "/" + hash + ".result").c_str());
    }
    std::remove((cfg.serve.storeDir + "/store.index").c_str());
    ::rmdir(cfg.serve.storeDir.c_str());
}

/**
 * One quick-scale sweep + engine shared by the whole suite, so the
 * simulation cost is paid once.
 */
class ServeEngineTest : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        cfg_ = new RunConfig(engineConfig("bds_engine_cache"));
        engine_ = new ServeEngine(*cfg_);

        // The reference: the batch path's matrix and CSV bytes,
        // computed exactly as bench_common's characterizedPipeline.
        WorkloadRunner runner(NodeConfig::defaultSim(),
                              ScaleProfile::byName("quick"), 42);
        runner.setParallel(cfg_->parallel);
        SweepReport report;
        Matrix metrics = runner.runAll(nullptr, nullptr, &report);
        PipelineResult res;
        res.names = report.survivorNames();
        res.rawMetrics = metrics;
        std::ostringstream csv;
        writeMetricsCsv(csv, res);
        batchCsv_ = new std::string(csv.str());
    }

    static void TearDownTestSuite()
    {
        wipeCache(*cfg_, engine_, {quickRequest(42)});
        delete engine_;
        delete cfg_;
        delete batchCsv_;
        engine_ = nullptr;
        cfg_ = nullptr;
        batchCsv_ = nullptr;
    }

    static RunConfig *cfg_;
    static ServeEngine *engine_;
    static std::string *batchCsv_;
};

RunConfig *ServeEngineTest::cfg_ = nullptr;
ServeEngine *ServeEngineTest::engine_ = nullptr;
std::string *ServeEngineTest::batchCsv_ = nullptr;

// Cases run in definition order (the binary is one ctest entry), so
// this first one seeds the cache the later cases answer from.
TEST_F(ServeEngineTest, MissComputesThenHitServesTheSameBytes)
{
    const ServeResponse cold = engine_->handle(quickRequest());
    ASSERT_TRUE(cold.ok) << cold.message;
    EXPECT_FALSE(cold.hit);
    EXPECT_EQ(cold.hashHex,
              runConfigHashHex(engine_->requestConfig(quickRequest())));

    const ServeResponse warm = engine_->handle(quickRequest());
    ASSERT_TRUE(warm.ok) << warm.message;
    EXPECT_TRUE(warm.hit);
    EXPECT_EQ(warm.payload, cold.payload);

    const ServeStats stats = engine_->stats();
    EXPECT_GE(stats.requests, 2u);
    EXPECT_GE(stats.hits, 1u);
    EXPECT_GE(stats.misses, 1u);
}

TEST_F(ServeEngineTest, PayloadIsByteIdenticalToTheBatchPath)
{
    const ServeResponse resp = engine_->handle(quickRequest());
    ASSERT_TRUE(resp.ok) << resp.message;
    EXPECT_EQ(resp.payload, *batchCsv_);
}

TEST_F(ServeEngineTest, ProjectionSelectsRowsAndColumns)
{
    RequestRecord req = parseRequestLine(
        "characterize scale=quick seed=42 "
        "workloads=H-Sort,S-Grep metrics=LOAD,ILP");
    const ServeResponse resp = engine_->handle(req);
    ASSERT_TRUE(resp.ok) << resp.message;
    EXPECT_TRUE(resp.hit); // projections answer from the same cell

    std::istringstream in(resp.payload);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line, "workload,LOAD,ILP");
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line.rfind("H-Sort,", 0), 0u) << line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_EQ(line.rfind("S-Grep,", 0), 0u) << line;
    EXPECT_FALSE(std::getline(in, line));

    // The projected cells match the full payload's columns.
    const ServeResponse full = engine_->handle(quickRequest());
    std::istringstream fullIn(full.payload);
    MetricTable table = readMetricsCsv(fullIn);
    std::istringstream projIn(resp.payload);
    MetricTable proj = readMetricsCsv(projIn);
    ASSERT_EQ(proj.names.size(), 2u);
    for (std::size_t r = 0; r < proj.names.size(); ++r) {
        std::size_t fullRow = 0;
        while (table.names[fullRow] != proj.names[r])
            ++fullRow;
        for (std::size_t c = 0; c < proj.columns.size(); ++c) {
            std::size_t fullCol = 0;
            while (table.columns[fullCol] != proj.columns[c])
                ++fullCol;
            EXPECT_EQ(proj.values(r, c), table.values(fullRow, fullCol));
        }
    }
}

TEST_F(ServeEngineTest, BypassComputesWithoutTouchingTheStore)
{
    RequestRecord req = quickRequest();
    req.flags |= kServeFlagBypass;
    const ServeStats before = engine_->stats();
    const ServeResponse resp = engine_->handle(req);
    ASSERT_TRUE(resp.ok) << resp.message;
    EXPECT_FALSE(resp.hit);
    EXPECT_EQ(resp.payload, *batchCsv_);
    EXPECT_EQ(engine_->stats().bypassed, before.bypassed + 1);
}

TEST_F(ServeEngineTest, InvalidRequestsAreErrorResponses)
{
    RequestRecord req = quickRequest();
    req.op = 99;
    const ServeResponse resp = engine_->handle(req);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.code, ErrorCode::InvalidConfig);

    RequestRecord badScale = quickRequest();
    badScale.scale = 7;
    const ServeResponse resp2 = engine_->handle(badScale);
    EXPECT_FALSE(resp2.ok);
    EXPECT_EQ(resp2.code, ErrorCode::InvalidConfig);

    // The engine keeps serving after errors.
    const ServeResponse after = engine_->handle(quickRequest());
    EXPECT_TRUE(after.ok);
    EXPECT_TRUE(after.hit);
}

TEST_F(ServeEngineTest, CountersTrackRequestsHitsAndMisses)
{
    std::ostringstream trace;
    Tracer::global().enableStream(&trace);
    const ServeResponse hit = engine_->handle(quickRequest());
    EXPECT_TRUE(hit.ok);
    RequestRecord bad = quickRequest();
    bad.op = 99;
    engine_->handle(bad);
    Tracer::global().disable();

    const std::string events = trace.str();
    EXPECT_NE(events.find("\"serve.requests\""), std::string::npos)
        << events;
    EXPECT_NE(events.find("\"serve.hits\""), std::string::npos)
        << events;
    EXPECT_NE(events.find("\"serve.errors\""), std::string::npos)
        << events;
}

TEST(ServeEngineKeys, CellsDifferingInOneKeyFieldNeverAlias)
{
    // Requests that differ only in seed, machine or the sampled bit
    // are different cells. Each gets its own fake entry, and every
    // repeat of a request must be served that entry, whatever the
    // engine remembers of the others' keys.
    RunConfig cfg = engineConfig("bds_engine_keys_cache");
    ServeEngine engine(cfg);
    std::vector<RequestRecord> reqs(4, quickRequest(11));
    reqs[1].seed = 12;
    reqs[2].machine = 1;
    reqs[3].flags |= kServeFlagSampled;

    std::vector<ResultEntry> entries;
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        ResultEntry e;
        e.hashHex = runConfigHashHex(engine.requestConfig(reqs[i]));
        e.canonicalConfig = canonicalRunConfig(engine.requestConfig(reqs[i]));
        e.names = {"H-Sort"};
        e.csv = "workload,LOAD\nH-Sort,0." + std::to_string(i + 1)
            + "\n";
        e.manifestJson = "{}\n";
        ASSERT_TRUE(engine.store().store(e));
        entries.push_back(e);
    }
    for (std::size_t i = 0; i < entries.size(); ++i)
        for (std::size_t j = i + 1; j < entries.size(); ++j)
            ASSERT_NE(entries[i].hashHex, entries[j].hashHex);

    for (int round = 0; round < 2; ++round)
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            const ServeResponse resp = engine.handle(reqs[i]);
            ASSERT_TRUE(resp.ok) << resp.message;
            EXPECT_TRUE(resp.hit) << "round " << round << " cell " << i;
            EXPECT_EQ(resp.hashHex, entries[i].hashHex);
            EXPECT_EQ(resp.payload, entries[i].csv);
        }
    EXPECT_EQ(engine.stats().misses, 0u);
    wipeCache(cfg, &engine, reqs);
}

TEST(ServeEngineFault, InjectedFaultIsQuarantinedPerRequest)
{
    // A separate engine whose base config arms quarantine + a
    // deterministic injected failure, as BDS_FAULT_THROW=H-Sort
    // BDS_FAIL_POLICY=quarantine would.
    RunConfig cfg = engineConfig("bds_engine_fault_cache");
    cfg.fault.throwAt = "H-Sort";
    cfg.fault.recovery.policy = FailPolicy::Quarantine;
    FaultInjector::global().arm(cfg.fault);
    ServeEngine engine(cfg);

    const ServeResponse resp = engine.handle(quickRequest(7));
    FaultInjector::global().disarm();

    ASSERT_TRUE(resp.ok) << resp.message;
    EXPECT_EQ(resp.quarantined,
              (std::vector<std::string>{"H-Sort"}));
    // Survivors are served, the quarantined row is absent...
    EXPECT_EQ(resp.payload.find("H-Sort,"), std::string::npos);
    EXPECT_NE(resp.payload.find("H-WordCount,"), std::string::npos);
    // ...and the incomplete cell was never cached.
    ResultEntry out;
    EXPECT_FALSE(engine.store().load(resp.hashHex, &out));

    // The engine survives and keeps answering.
    RunConfig clean = engineConfig("bds_engine_fault_cache");
    ServeEngine cleanEngine(clean);
    const ServeResponse after = cleanEngine.handle(quickRequest(7));
    EXPECT_TRUE(after.ok) << after.message;

    wipeCache(clean, &cleanEngine, {quickRequest(7)});
}

TEST(ServeEngineOverload, QueueFullComputesAreShedWithTypedErrors)
{
    // One compute slot, zero queue slots: a compute arriving while
    // the slot is busy must be shed immediately with the typed
    // Overloaded error — not queued, not crashed.
    RunConfig cfg = engineConfig("bds_engine_shed_cache");
    cfg.serve.maxInFlight = 1;
    cfg.serve.maxQueue = 0;
    cfg.serve.bypassStore = true; // every request is a compute
    cfg.fault.stallAt = "H-Sort"; // pin the slot busy for 500 ms
    cfg.fault.stallMs = 500;
    FaultInjector::global().arm(cfg.fault);
    ServeEngine engine(cfg);

    std::thread slow([&] {
        const ServeResponse r = engine.handle(quickRequest(3));
        EXPECT_TRUE(r.ok) << r.message;
    });
    // The stalled sweep cannot finish before its 500 ms stall; at
    // 100 ms the slot is reliably busy.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const ServeResponse shed = engine.handle(quickRequest(4));
    slow.join();
    FaultInjector::global().disarm();

    EXPECT_FALSE(shed.ok);
    EXPECT_EQ(shed.code, ErrorCode::Overloaded);
    EXPECT_EQ(std::string(errorCodeName(shed.code)), "overloaded");
    EXPECT_NE(shed.message.find("max_queue=0"), std::string::npos)
        << shed.message;
    const ServeStats stats = engine.stats();
    EXPECT_EQ(stats.shed, 1u);
    EXPECT_EQ(stats.errors, 1u);

    // Shedding is load control, not a latch: the engine answers the
    // next request once the storm passes.
    const ServeResponse after = engine.handle(quickRequest(5));
    EXPECT_TRUE(after.ok) << after.message;
    wipeCache(cfg, &engine, {});
}

TEST(ServeEngineFault, FailFastInjectionIsAnErrorResponse)
{
    RunConfig cfg = engineConfig("bds_engine_failfast_cache");
    cfg.fault.throwAt = "H-Sort"; // policy stays fail-fast
    FaultInjector::global().arm(cfg.fault);
    ServeEngine engine(cfg);

    const ServeResponse resp = engine.handle(quickRequest(7));
    FaultInjector::global().disarm();

    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.code, ErrorCode::InjectedFault);
    // Nothing cached, engine still alive.
    ResultEntry out;
    EXPECT_FALSE(engine.store().load(resp.hashHex, &out));
    EXPECT_EQ(engine.stats().errors, 1u);

    wipeCache(cfg, &engine, {});
}

} // namespace
} // namespace bds
