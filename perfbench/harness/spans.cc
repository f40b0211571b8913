#include "spans.h"

#include <chrono>
#include <fstream>
#include <mutex>
#include <vector>

#include "obs/json.h"

namespace perfbench {

namespace {

struct SpanRecord
{
    const char *name;
    std::string id;
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int64_t parent = -1;
};

bool g_enabled = false;
std::mutex g_mutex; ///< guards g_spans
std::vector<SpanRecord> g_spans;
thread_local std::int64_t t_open = -1; ///< innermost open span

} // namespace

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
enableSpans()
{
    g_enabled = true;
}

bool
spansEnabled()
{
    return g_enabled;
}

std::int64_t
currentSpan()
{
    return t_open;
}

SpanParent::SpanParent(std::int64_t parent) : saved_(t_open)
{
    t_open = parent;
}

SpanParent::~SpanParent()
{
    t_open = saved_;
}

Span::Span(const char *name, std::string id)
{
    if (!g_enabled)
        return;
    const std::int64_t start = nowNs();
    std::lock_guard<std::mutex> lock(g_mutex);
    index_ = static_cast<std::int64_t>(g_spans.size());
    g_spans.push_back({name, std::move(id), start, 0, t_open});
    t_open = index_;
}

Span::~Span()
{
    if (index_ < 0)
        return;
    const std::int64_t end = nowNs();
    std::lock_guard<std::mutex> lock(g_mutex);
    SpanRecord &rec = g_spans[static_cast<std::size_t>(index_)];
    rec.end = end;
    t_open = rec.parent;
}

void
writeSpans(const std::string &path)
{
    std::ofstream out(path);
    std::lock_guard<std::mutex> lock(g_mutex);
    for (std::size_t i = 0; i < g_spans.size(); ++i) {
        const SpanRecord &s = g_spans[i];
        out << "{\"i\": " << i << ", \"name\": \""
            << bds::jsonEscape(s.name) << "\", \"id\": \""
            << bds::jsonEscape(s.id) << "\", \"start_ns\": " << s.start
            << ", \"end_ns\": " << s.end << ", \"parent\": " << s.parent
            << "}\n";
    }
}

} // namespace perfbench
