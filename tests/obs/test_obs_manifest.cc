/**
 * @file
 * RunManifest round-trip tests: writeRunManifest() followed by
 * parseRunManifest() must reproduce every resolved-option field, and
 * checkManifestFile() must accept what the writer produces. Also
 * covers the corner cases of the small JSON layer underneath.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/log.h"
#include "obs/check.h"
#include "obs/json.h"
#include "obs/manifest.h"

namespace bds {
namespace {

/** A manifest exercising every field with non-default values. */
RunManifest
sampleManifest()
{
    RunManifest m;
    m.tool = "unit_tool";
    m.version = bdsVersion();
    m.created = "2026-08-05T12:34:56Z";
    m.argv = {"unit_tool", "--scale", "full", "--trace"};

    m.config.tool = "unit_tool";
    m.config.scaleName = "full";
    m.config.seed = 123;
    m.config.parallel.threads = 3;
    m.config.metricNames = {"IPC", "L3_MPKI", "DTLB_MPKI"};
    m.config.sampling.enabled = true;
    m.config.sampling.intervalUops = 250000;
    m.config.sampling.bbvDims = 64;
    m.config.sampling.kMin = 2;
    m.config.sampling.kMax = 9;
    m.config.sampling.warmupIntervals = 4;
    m.config.sampling.seed = 99;
    m.config.machineSpec = "westmere,l2=512k";
    m.config.trace = true;
    m.config.tracePath = "unit.trace.jsonl";

    m.stages = {{"characterize", 1.25}, {"analyze", 0.03125}};
    m.wallSeconds = 1.5;
    m.peakRssKb = 4096;
    m.artifacts = {"report.txt", "bds_metrics_full_123.csv"};
    return m;
}

TEST(ObsManifest, RoundTripsEveryField)
{
    RunManifest m = sampleManifest();
    std::ostringstream os;
    writeRunManifest(os, m);

    std::istringstream is(os.str());
    RunManifest r = parseRunManifest(is);

    EXPECT_EQ(r.manifestVersion, m.manifestVersion);
    EXPECT_EQ(r.tool, m.tool);
    EXPECT_EQ(r.version, m.version);
    EXPECT_EQ(r.created, m.created);
    EXPECT_EQ(r.argv, m.argv);

    // The parser rebuilds config.tool from the manifest's tool.
    EXPECT_EQ(r.config.tool, m.tool);
    EXPECT_EQ(r.config.scaleName, m.config.scaleName);
    EXPECT_EQ(r.config.seed, m.config.seed);
    EXPECT_EQ(r.config.parallel.threads, m.config.parallel.threads);
    EXPECT_EQ(r.config.metricNames, m.config.metricNames);
    EXPECT_EQ(r.config.sampling.enabled, m.config.sampling.enabled);
    EXPECT_EQ(r.config.sampling.intervalUops,
              m.config.sampling.intervalUops);
    EXPECT_EQ(r.config.sampling.bbvDims, m.config.sampling.bbvDims);
    EXPECT_EQ(r.config.sampling.kMin, m.config.sampling.kMin);
    EXPECT_EQ(r.config.sampling.kMax, m.config.sampling.kMax);
    EXPECT_EQ(r.config.sampling.warmupIntervals,
              m.config.sampling.warmupIntervals);
    EXPECT_EQ(r.config.sampling.seed, m.config.sampling.seed);
    EXPECT_EQ(r.config.machineSpec, m.config.machineSpec);
    EXPECT_EQ(r.config.trace, m.config.trace);
    EXPECT_EQ(r.config.tracePath, m.config.tracePath);

    ASSERT_EQ(r.stages.size(), m.stages.size());
    for (std::size_t i = 0; i < m.stages.size(); ++i) {
        EXPECT_EQ(r.stages[i].name, m.stages[i].name);
        EXPECT_EQ(r.stages[i].seconds, m.stages[i].seconds);
    }
    EXPECT_EQ(r.wallSeconds, m.wallSeconds);
    EXPECT_EQ(r.peakRssKb, m.peakRssKb);
    EXPECT_EQ(r.artifacts, m.artifacts);
}

TEST(ObsManifest, PreDseManifestsDefaultTheMachine)
{
    // Manifests written before the machine axis existed have no
    // "machine" key; the parser must default it, not fail.
    RunManifest m = sampleManifest();
    std::ostringstream os;
    writeRunManifest(os, m);
    std::string text = os.str();
    const std::string line = "    \"machine\": \"westmere,l2=512k\",\n";
    const std::size_t pos = text.find(line);
    ASSERT_NE(pos, std::string::npos) << text;
    text.erase(pos, line.size());

    std::istringstream is(text);
    RunManifest r = parseRunManifest(is);
    EXPECT_EQ(r.config.machineSpec, "default");
}

TEST(ObsManifest, StoreBudgetFieldsRoundTripAndBackfillWhenAbsent)
{
    // Round trip: the serve block carries the admission-queue bound
    // and the byte budget.
    RunManifest m = sampleManifest();
    m.config.serve.enabled = true;
    m.config.serve.storeDir = "cache";
    m.config.serve.maxQueue = 5;
    m.config.serve.maxStoreBytes = 1 << 20;

    std::ostringstream os;
    writeRunManifest(os, m);
    {
        std::istringstream is(os.str());
        RunManifest r = parseRunManifest(is);
        EXPECT_EQ(r.config.serve.maxQueue, 5u);
        EXPECT_EQ(r.config.serve.maxStoreBytes,
                  static_cast<std::uint64_t>(1 << 20));
    }

    // Back-compat: manifests written before the shared-store layer
    // lack the new keys, and manifests written while interval
    // checkpoints existed carry a "checkpoint" config block. The
    // parser must default the former and ignore the latter, not fail.
    std::string text = os.str();
    for (const std::string needle :
         {std::string(", \"max_queue\": 5"),
          std::string(", \"store_max_bytes\": 1048576")}) {
        const std::size_t pos = text.find(needle);
        ASSERT_NE(pos, std::string::npos) << text;
        text.erase(pos, needle.size());
    }
    const std::size_t config_end = text.find("\n  },\n  \"stages\"");
    ASSERT_NE(config_end, std::string::npos) << text;
    text.insert(config_end,
                ",\n    \"checkpoint\": {\"enabled\": true, "
                "\"dir\": \"snaps\", \"max_bytes\": 4096}");
    std::istringstream is(text);
    RunManifest r = parseRunManifest(is);
    EXPECT_EQ(r.config.serve.storeDir, "cache");
    EXPECT_EQ(r.config.serve.maxQueue, 1024u);
    EXPECT_EQ(r.config.serve.maxStoreBytes, 0u);
    EXPECT_EQ(r.stages.size(), m.stages.size());
}

TEST(ObsManifest, TraceDisabledWritesAnEmptyTracePath)
{
    RunManifest m = sampleManifest();
    m.config.trace = false;
    m.config.tracePath = "would-be-ignored.jsonl";

    std::ostringstream os;
    writeRunManifest(os, m);
    std::istringstream is(os.str());
    RunManifest r = parseRunManifest(is);

    EXPECT_FALSE(r.config.trace);
    // The writer records the path of the trace that was actually
    // produced: none when tracing was off.
    EXPECT_TRUE(r.config.tracePath.empty());
}

TEST(ObsManifest, TraceEnabledWithDefaultPathRecordsTheResolvedOne)
{
    RunManifest m = sampleManifest();
    m.config.trace = true;
    m.config.tracePath.clear();

    std::ostringstream os;
    writeRunManifest(os, m);
    std::istringstream is(os.str());
    RunManifest r = parseRunManifest(is);

    EXPECT_EQ(r.config.tracePath, "unit_tool.trace.jsonl");
}

TEST(ObsManifest, EscapesSpecialCharactersInStrings)
{
    RunManifest m = sampleManifest();
    m.argv = {"unit_tool", "--manifest", "dir with \"quotes\"\\x.json"};
    m.artifacts = {"line\nbreak.txt", "tab\there.csv"};

    std::ostringstream os;
    writeRunManifest(os, m);
    std::istringstream is(os.str());
    RunManifest r = parseRunManifest(is);

    EXPECT_EQ(r.argv, m.argv);
    EXPECT_EQ(r.artifacts, m.artifacts);
}

TEST(ObsManifest, CheckerAcceptsAWrittenManifestFile)
{
    const std::string path = "unit_manifest_ok.json";
    {
        std::ofstream out(path);
        writeRunManifest(out, sampleManifest());
    }
    std::vector<std::string> errors = checkManifestFile(path);
    for (const std::string &e : errors)
        ADD_FAILURE() << e;
    std::remove(path.c_str());
}

TEST(ObsManifest, CheckerRejectsMissingAndMalformedFiles)
{
    EXPECT_FALSE(checkManifestFile("no_such_manifest.json").empty());

    const std::string path = "unit_manifest_bad.json";
    {
        std::ofstream out(path);
        out << "{\"manifest_version\": 1, \"tool\": \"x\"";
    }
    EXPECT_FALSE(checkManifestFile(path).empty());
    std::remove(path.c_str());
}

TEST(ObsManifest, CheckerFlagsFieldViolations)
{
    RunManifest m = sampleManifest();
    m.config.scaleName = "galactic";
    m.created = "yesterday";
    const std::string path = "unit_manifest_viol.json";
    {
        std::ofstream out(path);
        writeRunManifest(out, m);
    }
    std::vector<std::string> errors = checkManifestFile(path);
    EXPECT_EQ(errors.size(), 2u);
    std::remove(path.c_str());
}

TEST(ObsManifest, FailureRecordsRoundTrip)
{
    RunManifest m = sampleManifest();
    m.config.fault.recovery.policy = FailPolicy::Quarantine;
    m.config.fault.recovery.maxRetries = 2;
    m.config.fault.recovery.timeoutMs = 9000;
    m.config.fault.throwAt = "H-Grep";
    m.failures = {
        RunRecord{"H-Grep", RunStatus::Quarantined, 3,
                  ErrorCode::InjectedFault,
                  "injected exception in workload H-Grep", 0.5},
        RunRecord{"S-Sort", RunStatus::RetriedOk, 2,
                  ErrorCode::Timeout, "watchdog fired", 1.25},
    };
    m.quarantined = {"H-Grep"};

    std::ostringstream os;
    writeRunManifest(os, m);
    std::istringstream is(os.str());
    RunManifest r = parseRunManifest(is);

    EXPECT_EQ(r.config.fault.recovery.policy,
              FailPolicy::Quarantine);
    EXPECT_EQ(r.config.fault.recovery.maxRetries, 2u);
    EXPECT_EQ(r.config.fault.recovery.timeoutMs, 9000u);
    ASSERT_EQ(r.failures.size(), 2u);
    EXPECT_EQ(r.failures[0].name, "H-Grep");
    EXPECT_EQ(r.failures[0].status, RunStatus::Quarantined);
    EXPECT_EQ(r.failures[0].attempts, 3u);
    EXPECT_EQ(r.failures[0].code, ErrorCode::InjectedFault);
    EXPECT_EQ(r.failures[0].message,
              "injected exception in workload H-Grep");
    EXPECT_EQ(r.failures[0].seconds, 0.5);
    EXPECT_EQ(r.failures[1].status, RunStatus::RetriedOk);
    EXPECT_EQ(r.failures[1].code, ErrorCode::Timeout);
    EXPECT_EQ(r.quarantined, m.quarantined);
}

TEST(ObsManifest, CleanManifestOmitsTheFailuresSection)
{
    std::ostringstream os;
    writeRunManifest(os, sampleManifest());
    EXPECT_EQ(os.str().find("\"failures\""), std::string::npos);
    // And the parser tolerates manifests written before the recovery
    // section existed.
    std::istringstream is(os.str());
    RunManifest r = parseRunManifest(is);
    EXPECT_TRUE(r.failures.empty());
    EXPECT_TRUE(r.quarantined.empty());
}

TEST(ObsManifest, CheckerEnforcesTheFailureRecordGrammar)
{
    // Each manifest violates one grammar rule; the checker must
    // catch every one of them.
    struct Case {
        const char *label;
        RunRecord record;
    };
    const Case cases[] = {
        {"empty name",
         RunRecord{"", RunStatus::Failed, 1,
                   ErrorCode::WorkloadFailure, "x", 0.1}},
        {"ok status in failures",
         RunRecord{"H-Sort", RunStatus::Ok, 1, ErrorCode::None, "",
                   0.1}},
        {"zero attempts",
         RunRecord{"H-Sort", RunStatus::Failed, 0,
                   ErrorCode::WorkloadFailure, "x", 0.1}},
        {"retried_ok after one attempt",
         RunRecord{"H-Sort", RunStatus::RetriedOk, 1,
                   ErrorCode::InjectedFault, "x", 0.1}},
        {"failure without a code",
         RunRecord{"H-Sort", RunStatus::Failed, 1, ErrorCode::None,
                   "x", 0.1}},
        {"timeout status with a non-timeout code",
         RunRecord{"H-Sort", RunStatus::TimedOut, 1,
                   ErrorCode::InjectedFault, "x", 0.1}},
        {"negative seconds",
         RunRecord{"H-Sort", RunStatus::Failed, 1,
                   ErrorCode::WorkloadFailure, "x", -0.1}},
    };
    const std::string path = "unit_manifest_grammar.json";
    for (const Case &c : cases) {
        RunManifest m = sampleManifest();
        m.failures = {c.record};
        if (c.record.status == RunStatus::Quarantined)
            m.quarantined = {c.record.name};
        {
            std::ofstream out(path);
            writeRunManifest(out, m);
        }
        EXPECT_FALSE(checkManifestFile(path).empty()) << c.label;
    }
    std::remove(path.c_str());
}

TEST(ObsManifest, CheckerRequiresQuarantinedListToMatchRecords)
{
    RunManifest m = sampleManifest();
    m.failures = {RunRecord{"H-Grep", RunStatus::Quarantined, 1,
                            ErrorCode::InjectedFault, "boom", 0.1}};
    m.quarantined = {}; // list disagrees with the records
    const std::string path = "unit_manifest_quar.json";
    {
        std::ofstream out(path);
        writeRunManifest(out, m);
    }
    EXPECT_FALSE(checkManifestFile(path).empty());

    m.quarantined = {"H-Grep"};
    {
        std::ofstream out(path);
        writeRunManifest(out, m);
    }
    std::vector<std::string> errors = checkManifestFile(path);
    for (const std::string &e : errors)
        ADD_FAILURE() << e;
    std::remove(path.c_str());
}

TEST(ObsJson, ParsesScalarsArraysAndObjects)
{
    JsonValue v = parseJson(
        " {\"a\": [1, 2.5, -3e2], \"b\": {\"t\": true, \"f\": false, "
        "\"n\": null}, \"s\": \"\\u0041\\n\\\"\"} ");
    ASSERT_TRUE(v.isObject());
    const auto &a = v.at("a").asArray();
    ASSERT_EQ(a.size(), 3u);
    EXPECT_EQ(a[0].asUint(), 1u);
    EXPECT_EQ(a[1].asNumber(), 2.5);
    EXPECT_EQ(a[2].asNumber(), -300.0);
    EXPECT_TRUE(v.at("b").at("t").asBool());
    EXPECT_FALSE(v.at("b").at("f").asBool());
    EXPECT_TRUE(v.at("b").at("n").isNull());
    EXPECT_EQ(v.at("s").asString(), "A\n\"");
}

TEST(ObsJson, RejectsTrailingGarbageAndTypeMismatch)
{
    EXPECT_THROW(parseJson("{} extra"), FatalError);
    EXPECT_THROW(parseJson("[1,]"), FatalError);
    EXPECT_THROW(parseJson("\"unterminated"), FatalError);
    JsonValue v = parseJson("{\"n\": 1}");
    EXPECT_THROW(v.at("n").asString(), FatalError);
    EXPECT_THROW(v.at("missing"), FatalError);
    EXPECT_THROW(parseJson("{\"neg\": -4}").at("neg").asUint(),
                 FatalError);
}

TEST(ObsJson, NumberFormattingRoundTrips)
{
    for (double d : {0.0, 1.0, 0.1, 1e-9, 12345.6789, 1.0 / 3.0}) {
        JsonValue v = parseJson(jsonNumber(d));
        EXPECT_EQ(v.asNumber(), d) << "via " << jsonNumber(d);
    }
}

} // namespace
} // namespace bds
