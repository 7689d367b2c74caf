/**
 * @file
 * The benchmark's three workloads.  Each generates its inputs from
 * the seed, sets up (several times; the median is setup_s), measures
 * for the requested number of seconds, checks the program's outputs
 * outside the timed region and records its metrics in the Report.
 *
 * With tracing off a workload records the end-to-end metrics; with
 * tracing on it records the per-layer metrics it exercises, taken
 * from spans around the public calls it makes.
 */

#ifndef AMPED_PERFBENCH_WORKLOADS_HPP
#define AMPED_PERFBENCH_WORKLOADS_HPP

#include <map>
#include <string>

#include "common.hpp"
#include "core/amped_model.hpp"
#include "trace.hpp"

namespace perfbench {

/** Set-up repetitions per run; setup_s is their median. */
constexpr int kSetupRepeats = 5;

/** What a workload runs with and records into. */
struct Run
{
    const Options &options;
    unsigned pool; ///< Worker threads every engine call is pinned to.
    Report &report;
    SpanRecorder &spans;
};

/**
 * A model of @p preset on nodes x per_node A100s (NVLink inside a
 * node, HDR between nodes) with the serve protocol's default
 * efficiency and options — the model an `amped serve` request with
 * those params evaluates.
 */
amped::core::AmpedModel clusterModel(const std::string &preset,
                                     std::int64_t nodes,
                                     std::int64_t per_node);

void runSweepCasestudy(Run &run);
void runOptimizeMix(Run &run);
void runServeOpen(Run &run);

/**
 * Records the registry counts of a traced run as per-layer metrics:
 * sweep-memo and serve-cache hits, misses and evictions, admission
 * rejections and expiries, and thread-pool loops, each as the
 * difference between the two snapshots.
 */
void reportRegistryCounts(Report &report,
                          const std::map<std::string, std::uint64_t> &before,
                          const std::map<std::string, std::uint64_t> &after);

/**
 * The cold-path guard of the explore workloads: neither the sweep
 * memo nor the serve cache may have answered inside the timed
 * region, or the run timed a lookup instead of a computation.
 */
void checkColdPath(Report &report,
                   const std::map<std::string, std::uint64_t> &before,
                   const std::map<std::string, std::uint64_t> &after);

} // namespace perfbench

#endif // AMPED_PERFBENCH_WORKLOADS_HPP
