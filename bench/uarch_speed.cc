/**
 * @file
 * Detail-simulation throughput bench for the src/uarch layer, the
 * artifact behind docs/PERFORMANCE.md.
 *
 * Two levels of measurement, written to BENCH_uarch_speed.json:
 *
 *  - per-structure: the flat structure-of-arrays cache/TLB/branch
 *    implementations against the committed reference models
 *    (src/uarch/reference.h) on identical precomputed address
 *    streams — a live before/after on the same machine, so the
 *    speedup column is comparable across hosts;
 *
 *  - end-to-end: micro-ops per second replaying a recorded
 *    real-workload trace (quick-scale Hadoop/Spark picks) through a
 *    full SystemModel, on both the detail path and the counter-frozen
 *    warming fast path. The aggregate cycle count is printed in hex
 *    float so any accuracy drift shows up as a bit change.
 *
 * Modes:
 *   uarch_speed                 full measurement, write the JSON
 *   uarch_speed --quick         reduced streams/trace (CI smoke)
 *   uarch_speed --check FILE    also compare against a committed
 *                               JSON: fail when end-to-end detail
 *                               ops/s or any per-structure speedup
 *                               regresses more than 20%
 *   uarch_speed --warn-only     downgrade --check failures to
 *                               warnings (first-land CI mode; also
 *                               the right mode when FILE was captured
 *                               on different hardware, where absolute
 *                               ops/s are not comparable)
 *
 * This bench manages its own tiny flag set instead of RunConfig: it
 * needs no scale/threads/sampling knobs, and CI drives it with flags
 * RunConfig would reject.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sample/interval.h"
#include "uarch/machine.h"
#include "uarch/reference.h"
#include "uarch/system.h"
#include "workloads/registry.h"
#include "bench_common.h"

namespace {

double
now()
{
    return std::chrono::duration<double>(
        std::chrono::steady_clock::now().time_since_epoch()).count();
}

/** Best-of-N wall time of fn(), in seconds. */
template <typename Fn>
double
bestOf(int rounds, Fn &&fn)
{
    double best = 1e300;
    for (int r = 0; r < rounds; ++r) {
        double t0 = now();
        fn();
        double dt = now() - t0;
        if (dt < best)
            best = dt;
    }
    return best;
}

/**
 * The simulator's cache usage pattern: LRU access, insert on miss.
 * The sink folds hit states and eviction victims so the compiler
 * cannot drop work, and doubles as a cheap ref/flat equality check.
 */
template <typename Cache>
std::uint64_t
driveCache(Cache &c, const std::vector<std::uint64_t> &addrs)
{
    std::uint64_t sink = 0;
    for (std::uint64_t a : addrs) {
        auto look = c.access(a);
        if (look.hit) {
            sink += static_cast<std::uint64_t>(look.state);
        } else {
            auto ev = c.insert(a, bds::CoherenceState::Exclusive);
            if (ev.valid)
                sink += ev.lineAddr & 0xff;
        }
    }
    return sink;
}

template <typename Tlb>
std::uint64_t
driveTlb(Tlb &t, const std::vector<std::uint64_t> &addrs)
{
    std::uint64_t sink = 0;
    for (std::uint64_t a : addrs)
        sink += static_cast<std::uint64_t>(t.translateData(a));
    return sink;
}

template <typename Bp>
std::uint64_t
driveBranch(Bp &b, const std::vector<std::uint64_t> &ips,
            const std::vector<bool> &takens)
{
    std::uint64_t sink = 0;
    for (std::size_t i = 0; i < ips.size(); ++i)
        sink += b.predictAndTrain(ips[i], takens[i]) ? 1 : 0;
    return sink;
}

/** One per-structure row: reference vs flat on the same stream. */
struct StructureRow
{
    std::string name;
    double refMops = 0.0;
    double flatMops = 0.0;
    double speedup() const
    {
        return refMops > 0.0 ? flatMops / refMops : 0.0;
    }
};

/**
 * Precomputed address stream. With `hot` set, 3/4 of references land
 * in the hot eighth of the footprint (an L1's view: mostly hits, a
 * steady eviction stream). Without it, references are uniform over
 * the whole footprint — the LLC's view under the paper's workloads,
 * whose working sets sweep far past 12 MB.
 */
std::vector<std::uint64_t>
makeCacheStream(std::size_t n, std::uint64_t footprint, bool hot,
                std::uint32_t seed)
{
    bds::Pcg32 rng(seed);
    std::vector<std::uint64_t> addrs;
    addrs.reserve(n);
    std::uint32_t lines =
        static_cast<std::uint32_t>(footprint / 64);
    for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t line = hot && rng.nextBounded(4) != 0
            ? rng.nextBounded(lines / 8)
            : rng.nextBounded(lines);
        addrs.push_back(line * 64ULL + rng.nextBounded(64));
    }
    return addrs;
}

StructureRow
benchCachePattern(const char *name, const bds::CacheConfig &cfg,
                  std::uint64_t footprint, bool hot, std::size_t n,
                  int rounds, std::uint32_t seed)
{
    std::vector<std::uint64_t> addrs =
        makeCacheStream(n, footprint, hot, seed);

    StructureRow row;
    row.name = name;
    std::uint64_t ref_sink = 0, flat_sink = 0;
    double ref_s = bestOf(rounds, [&] {
        bds::refmodel::SetAssocCache c(cfg);
        ref_sink = driveCache(c, addrs);
    });
    double flat_s = bestOf(rounds, [&] {
        bds::SetAssocCache c(cfg);
        flat_sink = driveCache(c, addrs);
    });
    if (ref_sink != flat_sink)
        BDS_FATAL("flat/reference divergence on " << name
                  << ": sinks " << ref_sink << " vs " << flat_sink);
    row.refMops = static_cast<double>(n) / ref_s / 1e6;
    row.flatMops = static_cast<double>(n) / flat_s / 1e6;
    return row;
}

StructureRow
benchTlbPattern(std::size_t n, int rounds)
{
    bds::Pcg32 rng(71);
    std::vector<std::uint64_t> addrs;
    addrs.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        addrs.push_back(0x10000000ULL
                        + rng.nextBounded(2048) * 4096ULL
                        + rng.nextBounded(4096));

    bds::TlbConfig l1i{64, 4}, l1d{64, 4}, stlb{512, 4};
    StructureRow row;
    row.name = "tlb_translate";
    std::uint64_t ref_sink = 0, flat_sink = 0;
    double ref_s = bestOf(rounds, [&] {
        bds::refmodel::TwoLevelTlb t(l1i, l1d, stlb, 4096);
        ref_sink = driveTlb(t, addrs);
    });
    double flat_s = bestOf(rounds, [&] {
        bds::TwoLevelTlb t(l1i, l1d, stlb, 4096);
        flat_sink = driveTlb(t, addrs);
    });
    if (ref_sink != flat_sink)
        BDS_FATAL("flat/reference TLB divergence: sinks " << ref_sink
                  << " vs " << flat_sink);
    row.refMops = static_cast<double>(n) / ref_s / 1e6;
    row.flatMops = static_cast<double>(n) / flat_s / 1e6;
    return row;
}

StructureRow
benchBranchPattern(std::size_t n, int rounds)
{
    bds::Pcg32 rng(83);
    std::vector<std::uint64_t> ips;
    std::vector<bool> takens;
    ips.reserve(n);
    takens.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        ips.push_back(0x400000ULL + rng.nextBounded(1024) * 4ULL);
        takens.push_back(rng.nextBounded(10) < 7);
    }

    StructureRow row;
    row.name = "branch_predict";
    std::uint64_t ref_sink = 0, flat_sink = 0;
    double ref_s = bestOf(rounds, [&] {
        bds::refmodel::GshareBranchPredictor b(12);
        ref_sink = driveBranch(b, ips, takens);
    });
    double flat_s = bestOf(rounds, [&] {
        bds::GshareBranchPredictor b(12);
        flat_sink = driveBranch(b, ips, takens);
    });
    if (ref_sink != flat_sink)
        BDS_FATAL("flat/reference branch divergence: sinks "
                  << ref_sink << " vs " << flat_sink);
    row.refMops = static_cast<double>(n) / ref_s / 1e6;
    row.flatMops = static_cast<double>(n) / flat_s / 1e6;
    return row;
}

/** End-to-end replay measurement. */
struct EndToEnd
{
    std::size_t traceOps = 0;
    double detailOpsPerSec = 0.0;
    double warmOpsPerSec = 0.0;
    std::string cyclesHex; ///< aggregate cycles, %a format
};

/**
 * Record a quick-scale trace from real workloads, then time pure
 * replay (no generation cost) on the detail and warming paths.
 */
EndToEnd
benchEndToEnd(bool quick)
{
    // BDS_MACHINE is honored even though this bench skips RunConfig:
    // DSE geometries can be speed-checked like the default.
    const bds::NodeConfig machine = bdsbench::benchMachineFromEnv();
    bds::WorkloadRunner runner(machine, bds::ScaleProfile::quick(),
                               42);
    std::vector<bds::WorkloadId> picks = {
        {bds::Algorithm::Sort, bds::StackKind::Hadoop},
        {bds::Algorithm::WordCount, bds::StackKind::Hadoop},
    };
    if (!quick) {
        picks.push_back(
            {bds::Algorithm::PageRank, bds::StackKind::Spark});
        picks.push_back(
            {bds::Algorithm::JoinQuery, bds::StackKind::Hadoop});
    }

    bds::RecordingTarget target(machine.numCores);
    for (const auto &id : picks)
        runner.execute(id, target, runner.nodeDataSeed(id, 0));
    const bds::TraceRecorder &rec = target.trace();

    EndToEnd e;
    e.traceOps = rec.size();
    int rounds = quick ? 1 : 3;

    double cycles = 0.0;
    double detail_s = bestOf(rounds, [&] {
        bds::SystemModel sys(machine);
        rec.replay(sys, [&](std::uint64_t a, std::uint64_t n) {
            sys.dmaFill(a, n);
        });
        cycles = sys.aggregateCounters().cycles;
    });
    e.detailOpsPerSec = static_cast<double>(e.traceOps) / detail_s;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", cycles);
    e.cyclesHex = buf;

    double warm_s = bestOf(quick ? 1 : 2, [&] {
        bds::SystemModel sys(machine);
        sys.setCounterFreeze(true);
        rec.replay(sys, [&](std::uint64_t a, std::uint64_t n) {
            sys.dmaFill(a, n);
        });
    });
    e.warmOpsPerSec = static_cast<double>(e.traceOps) / warm_s;
    return e;
}

/**
 * Pull one numeric field out of a committed BENCH_uarch_speed.json.
 * The file is our own flat emission, so a substring scan is enough.
 * @return False when the key is missing.
 */
bool
findJsonNumber(const std::string &text, const std::string &key,
               double &out)
{
    std::size_t pos = text.find('"' + key + "\":");
    if (pos == std::string::npos)
        return false;
    pos = text.find(':', pos);
    out = std::strtod(text.c_str() + pos + 1, nullptr);
    return true;
}

/**
 * Compare this run against a committed baseline JSON: flag any
 * per-structure speedup or the end-to-end detail throughput falling
 * more than `tolerance` below the committed value.
 * @return Number of regressions found.
 */
int
checkAgainstBaseline(const std::string &path,
                     const std::vector<StructureRow> &rows,
                     const EndToEnd &e2e, double tolerance)
{
    std::ifstream in(path);
    if (!in) {
        std::cerr << "uarch_speed: cannot read baseline " << path
                  << "\n";
        return 1;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();

    int regressions = 0;
    auto check = [&](const std::string &what, const std::string &key,
                     double measured) {
        double committed = 0.0;
        if (!findJsonNumber(text, key, committed)) {
            std::cerr << "  baseline has no \"" << key
                      << "\" — skipping " << what << "\n";
            return;
        }
        double floor = committed * (1.0 - tolerance);
        if (measured < floor) {
            std::cerr << "  REGRESSION " << what << ": " << measured
                      << " vs committed " << committed << " (floor "
                      << floor << ")\n";
            ++regressions;
        } else {
            std::cerr << "  ok " << what << ": " << measured
                      << " vs committed " << committed << "\n";
        }
    };

    std::cerr << "checking against " << path << " (tolerance "
              << tolerance * 100 << "%)\n";
    // Per-structure speedups are ratios measured within one host, so
    // they transfer across machines; the absolute end-to-end ops/s
    // does not — run --warn-only when the baseline is foreign.
    for (const auto &r : rows)
        check("speedup(" + r.name + ")", r.name + "_speedup",
              r.speedup());
    check("detail_ops_per_sec", "detail_ops_per_sec",
          e2e.detailOpsPerSec);
    return regressions;
}

void
writeJson(const std::string &path, bool quick,
          const std::vector<StructureRow> &rows, const EndToEnd &e2e)
{
    std::ofstream os(path);
    os << "{\n"
       << "  \"bench\": \"uarch_speed\",\n"
       << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n";
    bdsbench::writeEnvironmentJson(os, "  ");
    os << ",\n  \"per_structure\": [";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto &r = rows[i];
        char line[256];
        std::snprintf(line, sizeof line,
                      "%s    {\"name\": \"%s\", \"ref_mops\": %.2f, "
                      "\"flat_mops\": %.2f, \"%s_speedup\": %.3f}",
                      i ? ",\n" : "\n", r.name.c_str(), r.refMops,
                      r.flatMops, r.name.c_str(), r.speedup());
        os << line;
    }
    os << "\n  ],\n"
       << "  \"end_to_end\": {\n"
       << "    \"trace_ops\": " << e2e.traceOps << ",\n";
    char line[128];
    std::snprintf(line, sizeof line,
                  "    \"detail_ops_per_sec\": %.0f,\n"
                  "    \"warm_ops_per_sec\": %.0f,\n",
                  e2e.detailOpsPerSec, e2e.warmOpsPerSec);
    os << line
       << "    \"aggregate_cycles_hex\": \"" << e2e.cyclesHex
       << "\"\n  }\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false, warn_only = false;
    std::string check_path;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--quick") {
            quick = true;
        } else if (a == "--warn-only") {
            warn_only = true;
        } else if (a == "--check" && i + 1 < argc) {
            check_path = argv[++i];
        } else {
            std::cerr << "usage: uarch_speed [--quick] "
                         "[--check FILE] [--warn-only]\n";
            return 2;
        }
    }

    std::size_t n = quick ? 400000 : 2000000;
    int rounds = quick ? 1 : 3;

    std::cerr << "[bench] per-structure streams (" << n
              << " ops, best of " << rounds << ")\n";
    std::vector<StructureRow> rows;
    rows.push_back(benchCachePattern(
        "cache_l1_pattern", {32 * 1024, 8, 64}, 64 * 1024,
        /*hot=*/true, n, rounds, 13));
    rows.push_back(benchCachePattern(
        "cache_l3_stream", {12 * 1024 * 1024, 16, 64}, 64ULL << 20,
        /*hot=*/false, n, rounds, 29));
    rows.push_back(benchTlbPattern(n, rounds));
    rows.push_back(benchBranchPattern(n, rounds));

    std::cerr << "[bench] end-to-end replay of a recorded "
              << (quick ? "2" : "4") << "-workload trace\n";
    EndToEnd e2e = benchEndToEnd(quick);

    std::printf("uarch detail-simulation throughput (%s mode)\n\n",
                quick ? "quick" : "full");
    std::printf("  %-18s %12s %12s %9s\n", "structure", "ref Mops/s",
                "flat Mops/s", "speedup");
    for (const auto &r : rows)
        std::printf("  %-18s %12.2f %12.2f %8.2fx\n", r.name.c_str(),
                    r.refMops, r.flatMops, r.speedup());
    std::printf("\n  end-to-end replay: %zu ops\n"
                "    detail path  %10.0f ops/s\n"
                "    warming path %10.0f ops/s\n"
                "    aggregate cycles %s\n",
                e2e.traceOps, e2e.detailOpsPerSec, e2e.warmOpsPerSec,
                e2e.cyclesHex.c_str());

    // Check before writing: the baseline may be this run's own
    // output path, and a fresh write would compare the run to itself.
    int regressions = 0;
    if (!check_path.empty())
        regressions = checkAgainstBaseline(check_path, rows, e2e, 0.20);

    writeJson("BENCH_uarch_speed.json", quick, rows, e2e);
    std::printf("\n-> BENCH_uarch_speed.json\n");

    if (!check_path.empty()) {
        if (regressions > 0) {
            std::printf("\nperf check: %d regression(s)%s\n",
                        regressions,
                        warn_only ? " (warn-only)" : "");
            return warn_only ? 0 : 1;
        }
        std::printf("\nperf check: PASS\n");
    }
    return 0;
}
