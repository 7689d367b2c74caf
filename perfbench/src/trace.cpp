#include "trace.hpp"

#include <algorithm>

#include "common/quantity.hpp"
#include "obs/chrome_trace.hpp"
#include "sim/engine.hpp"
#include "sim/task_graph.hpp"

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(Clock::now())
{
    if (enabled_)
        spans_.reserve(1u << 16);
}

int
SpanRecorder::open(const std::string &name, const std::string &layer,
                   std::uint64_t op)
{
    if (!enabled_)
        return -1;
    Span span;
    span.name = name;
    span.layer = layer;
    span.op = op;
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.start = seconds(origin_, Clock::now());
    spans_.push_back(std::move(span));
    const int index = static_cast<int>(spans_.size() - 1);
    stack_.push_back(index);
    return index;
}

void
SpanRecorder::close(int index)
{
    if (index < 0)
        return;
    spans_[static_cast<std::size_t>(index)].end =
        seconds(origin_, Clock::now());
    // Spans close in LIFO order (ScopedSpan lifetimes nest).
    if (!stack_.empty() && stack_.back() == index)
        stack_.pop_back();
}

std::vector<double>
SpanRecorder::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const auto &span : spans_)
        if (span.name == name)
            out.push_back(span.end - span.start);
    return out;
}

std::map<std::string, double>
SpanRecorder::selfTimeByLayer() const
{
    std::vector<double> child_time(spans_.size(), 0.0);
    for (const auto &span : spans_)
        if (span.parent >= 0)
            child_time[static_cast<std::size_t>(span.parent)] +=
                span.end - span.start;
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[spans_[i].layer] +=
            spans_[i].end - spans_[i].start - child_time[i];
    return self;
}

void
SpanRecorder::writeChromeTrace(const std::string &path,
                               const std::string &label,
                               std::size_t max_spans) const
{
    // The exporter renders simulator runs: each layer becomes a
    // device resource, each span a compute task busy over exactly
    // the span's interval.
    amped::sim::TaskGraph graph;
    amped::sim::SimResult result;
    std::map<std::string, amped::sim::ResourceId> tracks;
    const std::size_t count = std::min(max_spans, spans_.size());
    for (std::size_t i = 0; i < count; ++i) {
        const Span &span = spans_[i];
        auto track = tracks.find(span.layer);
        if (track == tracks.end()) {
            track = tracks
                        .emplace(span.layer, graph.addDevice(span.layer))
                        .first;
            result.resources.emplace_back();
        }
        const auto task = graph.addCompute(
            track->second, amped::Seconds(span.end - span.start),
            span.name + " #" + std::to_string(span.op), span.layer);
        auto &stats =
            result.resources[static_cast<std::size_t>(track->second)];
        stats.intervals.push_back({span.start, span.end, task});
        stats.busyTime += span.end - span.start;
        result.deliveryTime.push_back(span.end);
        result.makespan = std::max(result.makespan, span.end);
    }
    amped::obs::ChromeTraceBuilder builder;
    builder.addRun(graph, result, label);
    builder.writeFile(path);
}

} // namespace perfbench
