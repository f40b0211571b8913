/**
 * @file
 * bds_perfbench: one repetition of one benchmark workload.
 *
 *   bds_perfbench sweep --mode full|sampled --seed N --threads T
 *                       --out DIR [--machine P] [--ref CSV]
 *                       [--t0 NS] [--setup-only] [--trace]
 *   bds_perfbench serve --seeds A,B,C --budget BYTES --threads T
 *                       --out DIR [--t0 NS] [--setup-only] [--trace]
 *
 * `--t0` is the caller's steady-clock stamp taken just before it
 * started this process; the harness reports setup_s as the time from
 * there to its first workload or request. perfbench/run.py starts
 * it; see perfbench/README.md.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "harness.h"
#include "obs/json.h"
#include "spans.h"

namespace perfbench {

Args::Args(int argc, char **argv, int first)
{
    for (int i = first; i < argc; ++i) {
        std::string key = argv[i];
        if (key.rfind("--", 0) != 0)
            throw std::runtime_error("unexpected argument '" + key + "'");
        key = key.substr(2);
        if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
            kv_[key] = argv[++i];
        else
            kv_[key] = "";
    }
}

bool
Args::has(const std::string &key) const
{
    return kv_.count(key) != 0;
}

std::string
Args::get(const std::string &key, const std::string &fallback) const
{
    auto it = kv_.find(key);
    return it == kv_.end() ? fallback : it->second;
}

std::uint64_t
Args::num(const std::string &key, std::uint64_t fallback) const
{
    auto it = kv_.find(key);
    if (it == kv_.end())
        return fallback;
    std::size_t used = 0;
    const std::uint64_t v = std::stoull(it->second, &used);
    if (used != it->second.size())
        throw std::runtime_error("--" + key + " wants a number");
    return v;
}

void
JsonOut::num(const std::string &key, double v)
{
    fields_.emplace_back(key, bds::jsonNumber(v));
}

void
JsonOut::count(const std::string &key, std::uint64_t v)
{
    fields_.emplace_back(key, std::to_string(v));
}

void
JsonOut::str(const std::string &key, const std::string &v)
{
    fields_.emplace_back(key, '"' + bds::jsonEscape(v) + '"');
}

void
JsonOut::raw(const std::string &key, const std::string &json)
{
    fields_.emplace_back(key, json);
}

std::string
JsonOut::text() const
{
    std::ostringstream os;
    os << '{';
    for (std::size_t i = 0; i < fields_.size(); ++i)
        os << (i ? ", " : "") << '"' << fields_[i].first
           << "\": " << fields_[i].second;
    os << '}';
    return os.str();
}

void
JsonOut::write(const std::string &path) const
{
    writeFile(path, text() + "\n");
}

std::string
buildJson()
{
    JsonOut b;
    b.str("compiler", PERFBENCH_COMPILER);
    b.str("build_type", PERFBENCH_BUILD_TYPE);
    b.str("flags", PERFBENCH_BUILD_FLAGS);
    return b.text();
}

double
seconds(std::int64_t from, std::int64_t to)
{
    return static_cast<double>(to - from) * 1e-9;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
    if (!out.flush())
        throw std::runtime_error("cannot write " + path);
}

std::string
matrixCsv(const bds::Matrix &m, const std::vector<std::string> &names)
{
    // The same PipelineResult fields ServeEngine fills before it
    // renders a cell, so a sweep's CSV and a served payload of the
    // same cell are byte-comparable.
    bds::PipelineResult res;
    res.names = names;
    res.rawMetrics = m;
    std::ostringstream csv;
    bds::writeMetricsCsv(csv, res);
    return csv.str();
}

std::string
matrixHex(const bds::Matrix &m)
{
    std::ostringstream os;
    char buf[48];
    for (std::size_t r = 0; r < m.rows(); ++r) {
        for (std::size_t c = 0; c < m.cols(); ++c) {
            std::snprintf(buf, sizeof(buf), "%s%a", c ? "," : "",
                          m(r, c));
            os << buf;
        }
        os << '\n';
    }
    return os.str();
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: bds_perfbench sweep|serve [--flags]\n";
        return 2;
    }
    try {
        const std::string mode = argv[1];
        perfbench::Args args(argc, argv, 2);
        if (args.has("trace"))
            perfbench::enableSpans();
        if (mode == "sweep")
            return perfbench::sweepMain(args);
        if (mode == "serve")
            return perfbench::serveMain(args);
        std::cerr << "bds_perfbench: unknown mode '" << mode << "'\n";
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "bds_perfbench: " << e.what() << "\n";
        return 1;
    }
}
