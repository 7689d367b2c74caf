/**
 * @file
 * amped_perfbench: the repository benchmark.
 *
 *   amped_perfbench --workload <name> --seed <n> --seconds <s>
 *                   --trace <0|1> [--trace-out <path>]
 *
 * Runs one workload (sweep-casestudy, optimize-mix or serve-open),
 * checks the program's outputs, prints a host-fingerprint line and
 * then, as its last line, one JSON object with the keys correct,
 * attempted, failed and metrics.  --trace 0 reports the end-to-end
 * metrics; --trace 1 reports the per-layer metrics from spans the
 * benchmark records around each layer call, and writes those spans
 * as a Chrome trace to --trace-out.
 *
 * Exit codes: 0 = measured and every output check passed; 1 = an
 * output check failed or the run raised; 2 = command-line error.
 */

#include <iostream>

#include "common.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct MetricName
{
    const char *name;
    const char *unit;
};

/** End-to-end metrics, recorded with tracing off. */
const MetricName kEndToEnd[] = {
    {"setup_s", "s"},       {"peak_rss_mb", "MiB"},
    {"op_p50_ms", "ms"},    {"op_tail_ms", "ms"},
    {"items_per_s", "1/s"},
};

/** Per-call layer timings: span name == metric base name. */
const char *const kTimings[] = {
    "mapping.enumerate_s",
    "core.evaluate_s",
    "explore.kernel_build_s",
    "explore.sweep_grid_s",
    "explore.rank_s",
    "explore.optimize_s",
    "explore.optimize_search_s",
    "serve.parse_s",
    "serve.handle_line_s.ping",
    "serve.handle_line_s.eval",
    "serve.handle_line_s.sweep",
    "serve.handle_line_s.optimize",
    "serve.handle_line_s.report",
    "serve.handle_line_s.malformed",
    "serve.cache_hit_s",
    "serve.cache_miss_s",
    "serve.transport_s",
    "obs.json_dump_s",
    "obs.json_parse_s",
};

/** The layers spans are attributed to (self time per layer). */
const char *const kLayers[] = {"bench", "mapping", "core",
                               "explore", "serve",  "obs"};

/** Per-layer metrics other than the timings and self times. */
const MetricName kLayerValues[] = {
    {"mapping.mappings", "count"},
    {"explore.kernel_table_rows", "count"},
    {"explore.result_bytes", "bytes-computed"},
    {"explore.optimize.points", "count"},
    {"explore.optimize.evaluated", "count"},
    {"explore.optimize.pruned_by_bound", "count"},
    {"explore.optimize.pruned_by_memory", "count"},
    {"explore.optimize_eval_ratio", "ratio"},
    {"explore.memo_hits", "count"},
    {"explore.memo_misses", "count"},
    {"serve.cache_hits", "count"},
    {"serve.cache_misses", "count"},
    {"serve.cache_evictions", "count"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.queue_wait_ms.p50", "ms"},
    {"serve.queue_wait_ms.p99", "ms"},
    {"serve.rejected", "count"},
    {"serve.expired", "count"},
    {"serve.lateness_ms.p50", "ms"},
    {"serve.lateness_ms.p99", "ms"},
    {"obs.response_bytes", "bytes"},
    {"threadpool.parallel_for.calls", "count"},
    {"trace.overhead_ms", "ms"},
};

/**
 * Completes a traced run's metrics: timings from spans (unless the
 * workload derived them itself), self time per layer, registry
 * counts over the whole run (unless the workload read them around
 * its measured pass), and zero for every metric of a layer the
 * workload does not exercise.
 */
void
finishTraced(Report &report, const SpanRecorder &spans,
             const std::map<std::string, std::uint64_t> &before,
             const std::map<std::string, std::uint64_t> &after)
{
    for (const char *name : kTimings)
        if (!report.has(std::string(name) + ".p50"))
            report.timing(name, spans.durations(name));
    const auto self = spans.selfTimeByLayer();
    for (const char *layer : kLayers) {
        const auto it = self.find(layer);
        report.metric(std::string(layer) + ".self_s",
                      it == self.end() ? 0.0 : it->second, "s");
    }
    if (!report.has("serve.cache_hits"))
        reportRegistryCounts(report, before, after);
    for (const auto &metric : kLayerValues)
        if (!report.has(metric.name))
            report.metric(metric.name, 0.0, metric.unit);
}

int
run(const Options &options)
{
    fixMmapThreshold();
    const unsigned pool = pinWorkerPool();
    Report report;
    SpanRecorder spans(options.trace);
    Run run{options, pool, report, spans};
    const auto before = registryCounts();
    if (options.workload == "sweep-casestudy")
        runSweepCasestudy(run);
    else if (options.workload == "optimize-mix")
        runOptimizeMix(run);
    else
        runServeOpen(run);
    const auto after = registryCounts();

    if (options.trace) {
        finishTraced(report, spans, before, after);
        if (!options.traceOut.empty())
            spans.writeChromeTrace(options.traceOut, options.workload,
                                   50000);
    } else {
        report.metric("peak_rss_mb", peakRssMiB(), "MiB");
        for (const auto &metric : kEndToEnd)
            if (!report.has(metric.name))
                throw std::logic_error(std::string("workload did not "
                                                   "record ") +
                                       metric.name);
    }
    obs::Json fingerprint = hostFingerprint(options, pool);
    fingerprint.set("checks", static_cast<std::int64_t>(report.checks()));
    std::cout << obs::Json::object().set("fingerprint", fingerprint).dump()
              << "\n"
              << report.json().dump() << "\n";
    return report.correct() ? 0 : 1;
}

} // namespace

void
reportRegistryCounts(Report &report,
                     const std::map<std::string, std::uint64_t> &before,
                     const std::map<std::string, std::uint64_t> &after)
{
    const auto delta = [&](const char *name) {
        return static_cast<double>(countDelta(before, after, name));
    };
    report.metric("explore.memo_hits", delta("explore.sweep_cache.hits"),
                  "count");
    report.metric("explore.memo_misses",
                  delta("explore.sweep_cache.misses"), "count");
    const double hits = delta("serve.cache.hits");
    const double misses = delta("serve.cache.misses");
    report.metric("serve.cache_hits", hits, "count");
    report.metric("serve.cache_misses", misses, "count");
    report.metric("serve.cache_evictions", delta("serve.cache.evictions"),
                  "count");
    report.metric("serve.cache_hit_ratio",
                  hits + misses > 0 ? hits / (hits + misses) : 0.0,
                  "ratio");
    report.metric("serve.rejected", delta("common.queue.rejected"),
                  "count");
    report.metric("serve.expired", delta("common.queue.expired"), "count");
    report.metric("threadpool.parallel_for.calls",
                  delta("threadpool.parallel_for.calls"), "count");
}

void
checkColdPath(Report &report,
              const std::map<std::string, std::uint64_t> &before,
              const std::map<std::string, std::uint64_t> &after)
{
    for (const char *name : {"explore.sweep_cache.hits", "serve.cache.hits"})
        report.check(countDelta(before, after, name) == 0,
                     std::string("cold-path guard: ") + name +
                         " moved inside the timed region");
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::Options options;
    try {
        if (!perfbench::parseOptions(argc, argv, options))
            return 0;
    } catch (const perfbench::UsageError &error) {
        std::cerr << "amped_perfbench: " << error.what() << "\n"
                  << perfbench::usage();
        return 2;
    }
    try {
        return perfbench::run(options);
    } catch (const std::exception &error) {
        std::cerr << "amped_perfbench: " << error.what() << "\n";
        return 1;
    }
}
