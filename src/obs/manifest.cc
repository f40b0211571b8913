#include "obs/manifest.h"

#include <ctime>
#include <fstream>
#include <ostream>
#include <sstream>

#include "common/log.h"
#include "obs/json.h"

namespace bds {

const char *
bdsVersion()
{
#ifdef BDS_VERSION
    return BDS_VERSION;
#else
    return "0.0.0";
#endif
}

namespace {

/** Write a JSON string array on one line. */
void
writeStringArray(std::ostream &os,
                 const std::vector<std::string> &items)
{
    os << '[';
    for (std::size_t i = 0; i < items.size(); ++i)
        os << (i ? ", " : "") << '"' << jsonEscape(items[i]) << '"';
    os << ']';
}

std::vector<std::string>
readStringArray(const JsonValue &v)
{
    std::vector<std::string> out;
    for (const JsonValue &item : v.asArray())
        out.push_back(item.asString());
    return out;
}

} // namespace

void
writeRunManifest(std::ostream &os, const RunManifest &m)
{
    const RunConfig &c = m.config;
    os << "{\n"
       << "  \"manifest_version\": " << m.manifestVersion << ",\n"
       << "  \"tool\": \"" << jsonEscape(m.tool) << "\",\n"
       << "  \"bds_version\": \"" << jsonEscape(m.version) << "\",\n"
       << "  \"created\": \"" << jsonEscape(m.created) << "\",\n"
       << "  \"argv\": ";
    writeStringArray(os, m.argv);
    os << ",\n"
       << "  \"config\": {\n"
       << "    \"scale\": \"" << jsonEscape(c.scaleName) << "\",\n"
       << "    \"seed\": " << c.seed << ",\n"
       << "    \"machine\": \"" << jsonEscape(c.machineSpec)
       << "\",\n"
       << "    \"threads\": {\"requested\": " << c.parallel.threads
       << ", \"resolved\": " << c.parallel.resolved() << "},\n"
       << "    \"metrics\": ";
    writeStringArray(os, c.metricNames);
    os << ",\n"
       << "    \"sampling\": {\"enabled\": "
       << (c.sampling.enabled ? "true" : "false")
       << ", \"interval_uops\": " << c.sampling.intervalUops
       << ", \"bbv_dims\": " << c.sampling.bbvDims
       << ", \"k_min\": " << c.sampling.kMin
       << ", \"k_max\": " << c.sampling.kMax
       << ", \"warmup_intervals\": " << c.sampling.warmupIntervals
       << ", \"seed\": " << c.sampling.seed << "},\n"
       << "    \"trace\": {\"enabled\": "
       << (c.trace ? "true" : "false") << ", \"path\": \""
       << jsonEscape(c.trace ? c.resolvedTracePath() : std::string())
       << "\"},\n"
       << "    \"recovery\": {\"policy\": \""
       << failPolicyName(c.fault.recovery.policy)
       << "\", \"retries\": " << c.fault.recovery.maxRetries
       << ", \"timeout_ms\": " << c.fault.recovery.timeoutMs
       << ", \"fault_injection\": "
       << (c.fault.any() ? "true" : "false") << "}";
    // Only daemons carry a serve block (batch manifests stay
    // byte-identical to the pre-serve layout).
    if (c.serve.enabled)
        os << ",\n"
           << "    \"serve\": {\"socket\": \""
           << jsonEscape(c.serve.socketPath) << "\", \"cache_dir\": \""
           << jsonEscape(c.serve.storeDir)
           << "\", \"max_inflight\": " << c.serve.maxInFlight
           << ", \"max_queue\": " << c.serve.maxQueue
           << ", \"store_max_bytes\": " << c.serve.maxStoreBytes
           << ", \"bypass\": "
           << (c.serve.bypassStore ? "true" : "false")
           << ", \"request_log\": \""
           << jsonEscape(c.serve.logPath) << "\"}";
    os << "\n"
       << "  },\n"
       << "  \"stages\": [";
    for (std::size_t i = 0; i < m.stages.size(); ++i)
        os << (i ? ", " : "") << "{\"name\": \""
           << jsonEscape(m.stages[i].name) << "\", \"seconds\": "
           << jsonNumber(m.stages[i].seconds) << "}";
    os << "],\n"
       << "  \"wall_seconds\": " << jsonNumber(m.wallSeconds) << ",\n"
       << "  \"peak_rss_kb\": " << m.peakRssKb << ",\n"
       << "  \"artifacts\": ";
    writeStringArray(os, m.artifacts);
    // Failure records only appear when something went wrong, so a
    // clean run's manifest is unchanged by the fault layer.
    if (!m.failures.empty()) {
        os << ",\n  \"failures\": [\n";
        for (std::size_t i = 0; i < m.failures.size(); ++i) {
            const RunRecord &r = m.failures[i];
            os << (i ? ",\n" : "") << "    {\"name\": \""
               << jsonEscape(r.name) << "\", \"status\": \""
               << runStatusName(r.status)
               << "\", \"attempts\": " << r.attempts
               << ", \"code\": \"" << errorCodeName(r.code)
               << "\", \"message\": \"" << jsonEscape(r.message)
               << "\", \"seconds\": " << jsonNumber(r.seconds) << "}";
        }
        os << "\n  ],\n  \"quarantined\": ";
        writeStringArray(os, m.quarantined);
    }
    os << "\n}\n";
}

RunManifest
parseRunManifest(std::istream &is)
{
    std::ostringstream buf;
    buf << is.rdbuf();
    JsonValue root = parseJson(buf.str());

    RunManifest m;
    m.manifestVersion =
        static_cast<int>(root.at("manifest_version").asUint());
    m.tool = root.at("tool").asString();
    m.version = root.at("bds_version").asString();
    m.created = root.at("created").asString();
    m.argv = readStringArray(root.at("argv"));

    const JsonValue &cfg = root.at("config");
    m.config.tool = m.tool;
    m.config.scaleName = cfg.at("scale").asString();
    m.config.seed = cfg.at("seed").asUint();
    // Pre-DSE manifests lack the machine field; they were all
    // recorded on the implicit Table III default.
    if (cfg.has("machine"))
        m.config.machineSpec = cfg.at("machine").asString();
    m.config.parallel.threads = static_cast<unsigned>(
        cfg.at("threads").at("requested").asUint());
    m.config.metricNames = readStringArray(cfg.at("metrics"));

    const JsonValue &s = cfg.at("sampling");
    m.config.sampling.enabled = s.at("enabled").asBool();
    m.config.sampling.intervalUops = s.at("interval_uops").asUint();
    m.config.sampling.bbvDims = s.at("bbv_dims").asUint();
    m.config.sampling.kMin = s.at("k_min").asUint();
    m.config.sampling.kMax = s.at("k_max").asUint();
    m.config.sampling.warmupIntervals =
        static_cast<unsigned>(s.at("warmup_intervals").asUint());
    m.config.sampling.seed = s.at("seed").asUint();

    const JsonValue &t = cfg.at("trace");
    m.config.trace = t.at("enabled").asBool();
    m.config.tracePath = t.at("path").asString();

    // Pre-fault-layer manifests lack the recovery block.
    if (cfg.has("recovery")) {
        const JsonValue &r = cfg.at("recovery");
        if (!failPolicyFromName(r.at("policy").asString(),
                                &m.config.fault.recovery.policy))
            BDS_FATAL("manifest has unknown fail policy '"
                      << r.at("policy").asString() << "'");
        m.config.fault.recovery.maxRetries =
            static_cast<unsigned>(r.at("retries").asUint());
        m.config.fault.recovery.timeoutMs =
            r.at("timeout_ms").asUint();
    }

    // Only daemon manifests carry the serve block.
    if (cfg.has("serve")) {
        const JsonValue &sv = cfg.at("serve");
        m.config.serve.enabled = true;
        m.config.serve.socketPath = sv.at("socket").asString();
        m.config.serve.storeDir = sv.at("cache_dir").asString();
        m.config.serve.maxInFlight = static_cast<unsigned>(
            sv.at("max_inflight").asUint());
        // Pre-shared-store manifests lack the queue/budget fields.
        if (sv.has("max_queue"))
            m.config.serve.maxQueue = static_cast<unsigned>(
                sv.at("max_queue").asUint());
        if (sv.has("store_max_bytes"))
            m.config.serve.maxStoreBytes =
                sv.at("store_max_bytes").asUint();
        m.config.serve.bypassStore = sv.at("bypass").asBool();
        m.config.serve.logPath =
            sv.at("request_log").asString();
    }
    // A "checkpoint" block, written by builds that still had interval
    // checkpoints, is ignored like any other unknown config key.

    for (const JsonValue &st : root.at("stages").asArray()) {
        StageTime stage;
        stage.name = st.at("name").asString();
        stage.seconds = st.at("seconds").asNumber();
        m.stages.push_back(std::move(stage));
    }
    m.wallSeconds = root.at("wall_seconds").asNumber();
    m.peakRssKb = static_cast<long>(root.at("peak_rss_kb").asUint());
    m.artifacts = readStringArray(root.at("artifacts"));
    if (root.has("failures")) {
        for (const JsonValue &f : root.at("failures").asArray()) {
            RunRecord r;
            r.name = f.at("name").asString();
            if (!runStatusFromName(f.at("status").asString(),
                                   &r.status))
                BDS_FATAL("manifest has unknown run status '"
                          << f.at("status").asString() << "'");
            r.attempts =
                static_cast<unsigned>(f.at("attempts").asUint());
            if (!errorCodeFromName(f.at("code").asString(), &r.code))
                BDS_FATAL("manifest has unknown error code '"
                          << f.at("code").asString() << "'");
            r.message = f.at("message").asString();
            r.seconds = f.at("seconds").asNumber();
            m.failures.push_back(std::move(r));
        }
        m.quarantined = readStringArray(root.at("quarantined"));
    }
    return m;
}

RunManifest
readRunManifestFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        BDS_FATAL("cannot open manifest '" << path << "'");
    return parseRunManifest(in);
}

} // namespace bds
