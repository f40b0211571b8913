/**
 * @file
 * In-memory span recorder of the benchmark's traced runs.
 *
 * Spans wrap calls into the library's public functions from the
 * benchmark's own files; nothing under src/ is instrumented. Each
 * span has a name, start and end (steady clock, ns), the index of
 * the span open on the same thread when it began (its parent) and a
 * per-workload or per-request id. Spans stay in memory until
 * writeSpans() dumps them as JSON lines at the end of the run. With
 * tracing off a Span costs one branch.
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <string>

namespace perfbench {

/** Steady-clock time in nanoseconds (CLOCK_MONOTONIC on Linux). */
std::int64_t nowNs();

/** Turn span recording on for the rest of the process. */
void enableSpans();

/** True once enableSpans() ran. */
bool spansEnabled();

/** Write every recorded span to `path`, one JSON object per line. */
void writeSpans(const std::string &path);

/** Index of the innermost span open on this thread (-1: none). */
std::int64_t currentSpan();

/**
 * Adopt `parent` as this thread's open span for the object's
 * lifetime, so spans opened in a pool task nest under the span that
 * spawned the task.
 */
class SpanParent
{
  public:
    explicit SpanParent(std::int64_t parent);
    ~SpanParent();

    SpanParent(const SpanParent &) = delete;
    SpanParent &operator=(const SpanParent &) = delete;

  private:
    std::int64_t saved_;
};

/** RAII span: records [construction, destruction) when enabled. */
class Span
{
  public:
    Span(const char *name, std::string id = {});
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    std::int64_t index_ = -1;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
