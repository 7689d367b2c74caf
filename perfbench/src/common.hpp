/**
 * @file
 * Shared plumbing of the repository benchmark: command line, timing
 * and percentile helpers, the metrics-registry reader, the host
 * fingerprint and the result line the benchmark prints last.
 */

#ifndef AMPED_PERFBENCH_COMMON_HPP
#define AMPED_PERFBENCH_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace perfbench {

namespace obs = amped::obs;

using Clock = std::chrono::steady_clock;

/** Seconds from @p from to @p to. */
inline double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** A command-line mistake: reported with usage, exit code 2. */
class UsageError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** The parsed command line. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Flip one bit of an expected value so the output checks must
     *  fail (the self-test's proof that they can). */
    bool corruptExpectation = false;
    /** Chrome-trace destination of a traced run ("" = none). */
    std::string traceOut;
    /** Source revision stamped into the fingerprint. */
    std::string commit = "unknown";
};

/** The workload names, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/** Usage text for --help and command-line errors. */
std::string usage();

/**
 * Parses argv.  Returns false when --help was given (usage already
 * printed).  @throws UsageError on an unknown flag or workload, a
 * missing value, or a malformed number.
 */
bool parseOptions(int argc, char **argv, Options &options);

/** Linear-interpolated percentile (0..100) of @p values; 0 if empty. */
double percentile(std::vector<double> values, double pct);

/** percentile(values, 50). */
double median(std::vector<double> values);

/** Sum of @p values. */
double total(const std::vector<double> &values);

/** Counter values (and histogram counts) of the global registry. */
std::map<std::string, std::uint64_t> registryCounts();

/** after[name] - before[name], 0 for names missing from either. */
std::uint64_t countDelta(const std::map<std::string, std::uint64_t> &before,
                         const std::map<std::string, std::uint64_t> &after,
                         const std::string &name);

/** Flips the lowest mantissa bit: a corrupted expected value. */
void flipLowBit(double &value);

/** Peak resident set of this process in MiB (getrusage). */
double peakRssMiB();

/**
 * Fixes glibc's mmap threshold at its default of 128 KiB, which turns
 * off its sliding threshold: every block that large gets a mapping of
 * its own, returned to the system when freed.  With the sliding
 * threshold, freeing one large block raised it, later large blocks
 * came from the heap, and how the heap had fragmented decided the
 * peak: the same optimize call raised peak RSS by 5 MiB in one run and
 * by 40 MiB in another.  Fixed, peakRssMiB() follows the memory the
 * program holds.  A no-op on other C libraries.
 */
void fixMmapThreshold();

/**
 * Worker threads of every engine call.  One: on a shared 4-vCPU host
 * the parallel loops' cross-thread hand-offs made run-to-run spread
 * 10-30 %, against 1-10 % serial, and a serial figure does not depend
 * on the runner's core count.  Thread scaling is not measured here.
 */
constexpr unsigned kPoolThreads = 1;

/**
 * Pins the shared worker pool to kPoolThreads, exported as
 * AMPED_THREADS before the pool is first used.  Returns its size.
 */
unsigned pinWorkerPool();

/** nproc, pool size, compiler, build type and commit. */
obs::Json hostFingerprint(const Options &options, unsigned pool);

/**
 * Accumulates one run's outcome: operation counts, output checks and
 * named metrics, printed as the benchmark's final JSON line.
 */
class Report
{
  public:
    /** Records a metric (later calls overwrite earlier ones). */
    void metric(const std::string &name, double value,
                const std::string &unit);

    /** Records a per-call timing as NAME.p50 and NAME.total (s). */
    void timing(const std::string &name,
                const std::vector<double> &seconds);

    /** One operation attempted; @p ok false counts it failed. */
    void operation(bool ok);

    /** An output check; a false @p ok is logged and fails the run. */
    void check(bool ok, const std::string &what);

    bool correct() const { return correct_; }
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    std::uint64_t checks() const { return checks_; }
    bool has(const std::string &name) const
    {
        return metrics_.count(name) != 0;
    }

    /** The result object: correct, attempted, failed, metrics. */
    obs::Json json() const;

  private:
    struct Value
    {
        double value = 0.0;
        std::string unit;
    };
    std::map<std::string, Value> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t checks_ = 0;
    std::uint64_t failedChecks_ = 0;
    bool correct_ = true;
};

} // namespace perfbench

#endif // AMPED_PERFBENCH_COMMON_HPP
