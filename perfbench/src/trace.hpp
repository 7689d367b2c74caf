/**
 * @file
 * In-memory span recording for the benchmark's traced runs.
 *
 * The benchmark wraps each call it makes into a program layer in a
 * span: a name, the layer it belongs to, the operation (request,
 * call or iteration) it serves, the enclosing span, and start/end
 * times.  Spans stay in memory while the run measures; afterwards
 * they are aggregated into per-layer metrics (per-call durations by
 * span name, self time by layer) and exported as a Chrome trace
 * through obs::ChromeTraceBuilder.
 *
 * A disabled recorder makes ScopedSpan a no-op, so the untraced code
 * path is the traced one minus the clock reads.  Recording is
 * single-threaded: only the benchmark's driving thread opens spans.
 */

#ifndef AMPED_PERFBENCH_TRACE_HPP
#define AMPED_PERFBENCH_TRACE_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/** One recorded span (times in seconds since the recorder began). */
struct Span
{
    std::string name;  ///< Metric base name, e.g. "explore.rank".
    std::string layer; ///< Program layer: mapping, core, explore, ...
    std::uint64_t op = 0; ///< Operation the span serves.
    int parent = -1;      ///< Enclosing span index, -1 at top level.
    double start = 0.0;
    double end = 0.0;
};

class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled);

    bool enabled() const { return enabled_; }

    /** Opens a span under the innermost open one; -1 if disabled. */
    int open(const std::string &name, const std::string &layer,
             std::uint64_t op);

    /** Closes the span @p index returned by open(). */
    void close(int index);

    /** Durations (s) of every closed span called @p name. */
    std::vector<double> durations(const std::string &name) const;

    /**
     * Self time per layer: each span's duration minus the part its
     * direct children cover, summed by layer.
     */
    std::map<std::string, double> selfTimeByLayer() const;

    /**
     * Writes the first @p max_spans spans as a Chrome trace, one
     * track per layer, with the operation id in every slice label.
     */
    void writeChromeTrace(const std::string &path,
                          const std::string &label,
                          std::size_t max_spans) const;

  private:
    bool enabled_;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

/** RAII span: open on construction, close on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &recorder, const std::string &name,
               const std::string &layer, std::uint64_t op)
        : recorder_(recorder), index_(recorder.open(name, layer, op))
    {
    }
    ~ScopedSpan() { recorder_.close(index_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanRecorder &recorder_;
    int index_;
};

} // namespace perfbench

#endif // AMPED_PERFBENCH_TRACE_HPP
