#include "common.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <numeric>
#include <thread>

#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names{
        "sweep-casestudy", "optimize-mix", "serve-open"};
    return names;
}

std::string
usage()
{
    std::string text =
        "usage: amped_perfbench --workload <name> [--seed <n>] "
        "[--seconds <s>] [--trace <0|1>]\n"
        "                       [--trace-out <path>] [--commit <rev>] "
        "[--corrupt-expectation]\n"
        "workloads:";
    for (const auto &name : workloadNames())
        text += " " + name;
    text +=
        "\nPrints one JSON result line last: end-to-end metrics with "
        "--trace 0,\nper-layer metrics with --trace 1.\n";
    return text;
}

namespace {

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    std::uint64_t value = 0;
    const auto *end = text.data() + text.size();
    const auto parsed = std::from_chars(text.data(), end, value);
    if (text.empty() || parsed.ec != std::errc() || parsed.ptr != end)
        throw UsageError(flag + " needs a non-negative integer, got '" +
                         text + "'");
    return value;
}

} // namespace

bool
parseOptions(int argc, char **argv, Options &options)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--help" || flag == "-h") {
            std::cout << usage();
            return false;
        }
        if (flag == "--corrupt-expectation") {
            options.corruptExpectation = true;
            continue;
        }
        if (flag != "--workload" && flag != "--seed" &&
            flag != "--seconds" && flag != "--trace" &&
            flag != "--trace-out" && flag != "--commit")
            throw UsageError("unknown flag '" + flag + "'");
        if (i + 1 >= argc)
            throw UsageError(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            const auto &names = workloadNames();
            if (std::find(names.begin(), names.end(), value) ==
                names.end())
                throw UsageError("unknown workload '" + value + "'");
            options.workload = value;
        } else if (flag == "--seed") {
            options.seed = parseUnsigned(flag, value);
        } else if (flag == "--seconds") {
            const auto secs = parseUnsigned(flag, value);
            if (secs < 1 || secs > 600)
                throw UsageError("--seconds must be in 1..600, got " +
                                 value);
            options.seconds = static_cast<double>(secs);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                throw UsageError("--trace must be 0 or 1, got '" +
                                 value + "'");
            options.trace = value == "1";
        } else if (flag == "--trace-out") {
            options.traceOut = value;
        } else {
            options.commit = value;
        }
    }
    if (options.workload.empty())
        throw UsageError("--workload is required");
    return true;
}

double
percentile(std::vector<double> values, double pct)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank =
        pct / 100.0 * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

double
total(const std::vector<double> &values)
{
    return std::accumulate(values.begin(), values.end(), 0.0);
}

std::map<std::string, std::uint64_t>
registryCounts()
{
    std::map<std::string, std::uint64_t> counts;
    for (const auto &metric : amped::obs::MetricsRegistry::global().snapshot())
        counts[metric.name] = metric.count;
    return counts;
}

std::uint64_t
countDelta(const std::map<std::string, std::uint64_t> &before,
           const std::map<std::string, std::uint64_t> &after,
           const std::string &name)
{
    const auto b = before.find(name);
    const auto a = after.find(name);
    const std::uint64_t from = b == before.end() ? 0 : b->second;
    const std::uint64_t to = a == after.end() ? 0 : a->second;
    return to >= from ? to - from : 0;
}

void
flipLowBit(double &value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    bits ^= 1u;
    std::memcpy(&value, &bits, sizeof bits);
}

double
peakRssMiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

void
fixMmapThreshold()
{
#if defined(__GLIBC__)
    ::mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
}

unsigned
pinWorkerPool()
{
    ::setenv("AMPED_THREADS", std::to_string(kPoolThreads).c_str(), 1);
    return amped::ThreadPool::shared().threadCount();
}

obs::Json
hostFingerprint(const Options &options, unsigned pool)
{
    obs::Json out = obs::Json::object();
    out.set("nproc", static_cast<std::int64_t>(
                         std::thread::hardware_concurrency()));
    out.set("pool_threads", static_cast<std::int64_t>(pool));
    out.set("compiler", AMPED_PERFBENCH_COMPILER);
    out.set("build_type", AMPED_PERFBENCH_BUILD_TYPE);
    out.set("commit", options.commit);
    out.set("workload", options.workload);
    out.set("seed", static_cast<std::int64_t>(options.seed));
    out.set("seconds", options.seconds);
    out.set("trace", options.trace);
    return out;
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_[name] = Value{std::isfinite(value) ? value : 0.0, unit};
}

void
Report::timing(const std::string &name,
               const std::vector<double> &seconds)
{
    metric(name + ".p50", median(seconds), "s");
    metric(name + ".total", total(seconds), "s");
}

void
Report::operation(bool ok)
{
    ++attempted_;
    if (!ok)
        ++failed_;
}

void
Report::check(bool ok, const std::string &what)
{
    ++checks_;
    if (ok)
        return;
    if (++failedChecks_ <= 5)
        std::cerr << "perfbench: output check failed: " << what << "\n";
    correct_ = false;
}

obs::Json
Report::json() const
{
    obs::Json metrics = obs::Json::object();
    for (const auto &[name, value] : metrics_) {
        metrics.set(name, obs::Json::object()
                              .set("value", value.value)
                              .set("unit", value.unit));
    }
    obs::Json out = obs::Json::object();
    out.set("correct", correct_);
    out.set("attempted", static_cast<std::int64_t>(attempted_));
    out.set("failed", static_cast<std::int64_t>(failed_));
    out.set("metrics", std::move(metrics));
    return out;
}

} // namespace perfbench
