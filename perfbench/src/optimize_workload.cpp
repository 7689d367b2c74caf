/**
 * @file
 * optimize-mix: one closed-loop caller issues a seeded stream of
 * distinct Optimizer::optimize calls.  The calls vary the preset
 * (145b, gpt3, 530b, 1t, glam with a valid expert-parallel degree),
 * the cluster shape (16 to 1,024 accelerators), the batch list (1 to
 * 2,800 sizes), topK (1 to 10) and the memory screen.
 *
 * The stream comes in blocks of one call per cluster shape.  Which
 * log-spaced batch count (the middle of a stratum), preset and memory
 * setting each shape gets in a block follows a fixed cyclic design;
 * the seed draws the order inside a block, the exact batch sizes, topK
 * and the EP degree.  A run times a whole number of blocks, sized from
 * --seconds, so every run measures the same mix of call sizes, and its
 * median, p90 and call rate do not hinge on how many huge calls a seed
 * happened to draw or on where the time ran out.  The median call
 * sits where call times spread over three decades, so a sample whose
 * mix of sizes differed would move it by tens of percent.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <tuple>

#include "common/rng.hpp"
#include "core/memory_model.hpp"
#include "explore/optimizer.hpp"
#include "explore/registry.hpp"
#include "explore/sweep_kernel.hpp"
#include "mapping/parallelism.hpp"
#include "validate/calibrations.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace amped;

core::AmpedModel
clusterModel(const std::string &preset, std::int64_t nodes,
             std::int64_t per_node)
{
    net::SystemConfig system;
    system.numNodes = nodes;
    system.acceleratorsPerNode = per_node;
    system.intraLink = explore::interconnectByName("nvlink-a100");
    system.interLink = explore::interconnectByName("hdr");
    system.nicsPerNode = per_node;
    system.name = std::to_string(nodes) + "x" + std::to_string(per_node) +
                  " a100 / hdr";
    system.validate();
    core::ModelOptions options =
        validate::calibrations::nvswitchOptions(per_node);
    options.bubbleOverlapRatio = 0.1;
    return core::AmpedModel(explore::modelByName(preset),
                            explore::acceleratorByName("a100"),
                            hw::MicrobatchEfficiency(0.9, 30.0, 0.25),
                            system, options);
}

namespace {

constexpr std::size_t kStreamLength = 4000;
/** Sizes a run: blocks = --seconds * this / calls per block. */
constexpr double kPlannedCallsPerSecond = 6.0;
constexpr double kMaxBatches = 2800.0;

/** (preset, nodes, accelerators per node). */
using ModelKey = std::tuple<std::string, std::int64_t, std::int64_t>;

struct Call
{
    std::size_t block = 0;
    ModelKey model;
    std::vector<double> batches;
    std::size_t topK = 1;
    bool memory = false;
    std::int64_t expertParallel = 1;
};

/** Cluster shapes of 16 to 1,024 accelerators: (nodes, per node). */
const std::vector<std::pair<std::int64_t, std::int64_t>> &
clusterShapes()
{
    static const std::vector<std::pair<std::int64_t, std::int64_t>> shapes =
        [] {
            std::vector<std::pair<std::int64_t, std::int64_t>> out;
            for (std::int64_t nodes :
                 {2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128})
                out.emplace_back(nodes, 8);
            for (std::int64_t nodes :
                 {4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256})
                out.emplace_back(nodes, 4);
            return out;
        }();
    return shapes;
}

/** One call: @p count distinct batch sizes drawn from @p candidates. */
Call
makeCall(Rng &rng, std::vector<double> &candidates, const std::string &preset,
         const std::pair<std::int64_t, std::int64_t> &shape, std::size_t count,
         bool memory)
{
    Call call;
    call.model = ModelKey{preset, shape.first, shape.second};
    // Partial Fisher-Yates: `count` distinct sizes, ascending.
    for (std::size_t i = 0; i < count; ++i)
        std::swap(candidates[i],
                  candidates[static_cast<std::size_t>(rng.uniformInt(
                      static_cast<std::int64_t>(i),
                      static_cast<std::int64_t>(candidates.size() - 1)))]);
    call.batches.assign(candidates.begin(),
                        candidates.begin() + static_cast<std::ptrdiff_t>(count));
    std::sort(call.batches.begin(), call.batches.end());
    call.topK = static_cast<std::size_t>(rng.uniformInt(1, 10));
    call.memory = memory;
    if (preset == "glam")
        call.expertParallel = std::int64_t{1} << rng.uniformInt(0, 6);
    return call;
}

std::vector<Call>
makeStream(std::uint64_t seed)
{
    static const std::vector<std::string> presets{"145b", "gpt3", "530b",
                                                  "1t", "glam"};
    Rng rng(seed);
    std::vector<double> candidates; // multiples of 8 in [256, 32768]
    for (double b = 256.0; b <= 32768.0; b += 8.0)
        candidates.push_back(b);
    const auto &shapes = clusterShapes();
    const std::size_t block = shapes.size(); // 26: coprime to 7 and 11
    std::vector<Call> stream;
    std::set<std::string> seen;
    std::vector<std::size_t> order(block);
    for (std::size_t blk = 0; stream.size() < kStreamLength; ++blk) {
        std::iota(order.begin(), order.end(), 0);
        std::shuffle(order.begin(), order.end(), rng.engine());
        for (std::size_t j : order) {
            // Block blk gives shape j batch-count stratum 7 j + 11 blk,
            // preset j + blk and memory screen j + blk + blk / 5 (mod
            // their counts): a cyclic design, the same for every seed.
            const std::size_t stratum = (7 * j + 11 * blk) % block;
            const double u =
                (static_cast<double>(stratum) + 0.5) /
                static_cast<double>(block);
            const auto count = static_cast<std::size_t>(std::clamp(
                std::round(std::exp(u * std::log(kMaxBatches))), 1.0,
                kMaxBatches));
            Call call = makeCall(
                rng, candidates, presets[(j + blk) % presets.size()],
                shapes[j], count, (j + blk + blk / presets.size()) % 2 == 1);
            call.block = blk;
            std::string key = std::get<0>(call.model) + "|" +
                              std::to_string(shapes[j].first) + "x" +
                              std::to_string(shapes[j].second) + "|" +
                              std::to_string(call.topK) + "|" +
                              std::to_string(call.memory) + "|" +
                              std::to_string(call.expertParallel);
            for (double b : call.batches)
                key += "," + std::to_string(static_cast<std::int64_t>(b));
            if (seen.insert(key).second)
                stream.push_back(std::move(call));
        }
    }
    return stream;
}

/**
 * Percentile @p pct of @p values, estimated as the mean of the values
 * ranked within 5 points of it.  Call times spread over three decades,
 * so few calls lie near any percentile, and the host's speed swings
 * (tens of percent within seconds) on the one call a plain percentile
 * picks moved op_p50_ms by 20 % between runs of the same seed.
 */
double
centralPercentile(std::vector<double> values, double pct)
{
    std::sort(values.begin(), values.end());
    const double n = static_cast<double>(values.size());
    double sum = 0.0;
    double count = 0.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
        const double rank = 100.0 * (static_cast<double>(i) + 0.5) / n;
        if (std::abs(rank - pct) <= 5.0) {
            sum += values[i];
            count += 1.0;
        }
    }
    return count > 0.0 ? sum / count : percentile(values, pct);
}

struct Setup
{
    std::vector<Call> stream;
    std::map<ModelKey, core::AmpedModel> models;
    std::map<ModelKey, core::MemoryModel> memoryModels;
    core::TrainingJob job;
};

Setup
makeSetup(std::uint64_t seed, unsigned pool)
{
    Setup setup;
    setup.stream = makeStream(seed);
    for (const auto &call : setup.stream) {
        if (setup.models.count(call.model))
            continue;
        const auto &[preset, nodes, per_node] = call.model;
        auto model = clusterModel(preset, nodes, per_node);
        setup.memoryModels.emplace(
            call.model,
            core::MemoryModel(model::OpCounter(model.opCounter().config()),
                              model.accelerator()));
        setup.models.emplace(call.model, std::move(model));
    }
    setup.job.totalTrainingTokens = 300e9;
    setup.job.batchSize = 2048.0;
    // Warm-up: one search as large as the stream's largest (1,024
    // accelerators, 2,800 batch sizes) before the timed calls.
    explore::Optimizer warm(clusterModel("1t", 128, 8));
    warm.setThreads(pool);
    explore::OptimizerRequest request;
    for (std::size_t i = 0; i < static_cast<std::size_t>(kMaxBatches); ++i)
        request.batchSizes.push_back(2048.0 + 8.0 * static_cast<double>(i));
    request.jobTemplate = setup.job;
    request.topK = 10;
    (void)warm.optimize(request);
    return setup;
}

explore::Optimizer
optimizerFor(const Setup &setup, const Call &call, unsigned pool)
{
    explore::Optimizer optimizer(setup.models.at(call.model));
    optimizer.setThreads(pool);
    if (call.memory)
        optimizer.setMemoryModel(setup.memoryModels.at(call.model));
    return optimizer;
}

explore::OptimizerRequest
requestFor(const Setup &setup, const Call &call)
{
    explore::OptimizerRequest request;
    request.batchSizes = call.batches;
    request.jobTemplate = setup.job;
    request.topK = call.topK;
    request.expertParallel = call.expertParallel;
    return request;
}

/** The same call through the layer calls, each in a span. */
void
tracedCall(const Setup &setup, const Call &call, unsigned pool,
           SpanRecorder &spans, std::uint64_t op,
           explore::OptimizerCounters &sum, std::vector<double> &search,
           std::vector<double> &mapping_counts,
           std::vector<double> &table_rows)
{
    const auto &model = setup.models.at(call.model);
    ScopedSpan span(spans, "bench.optimize_call", "bench", op);
    std::vector<mapping::ParallelismConfig> mappings;
    {
        ScopedSpan inner(spans, "mapping.enumerate_s", "mapping", op);
        mappings = mapping::MappingSpace(model.system())
                       .enumerate(model.opCounter().config().numLayers);
    }
    mapping_counts.push_back(static_cast<double>(mappings.size()));
    std::vector<core::TrainingJob> jobs;
    for (double batch : call.batches) {
        core::TrainingJob job = setup.job;
        job.batchSize = batch;
        jobs.push_back(job);
    }
    const auto build_start = Clock::now();
    std::optional<explore::SweepKernel> kernel;
    {
        ScopedSpan inner(spans, "explore.kernel_build_s", "explore", op);
        kernel.emplace(model,
                       call.memory ? &setup.memoryModels.at(call.model)
                                   : nullptr,
                       mappings, jobs, pool);
    }
    const double build = seconds(build_start, Clock::now());
    table_rows.push_back(
        static_cast<double>(kernel->numClasses() * kernel->numJobs()));
    kernel.reset();
    const auto optimizer = optimizerFor(setup, call, pool);
    const auto request = requestFor(setup, call);
    const auto search_start = Clock::now();
    explore::OptimizerResult result;
    {
        ScopedSpan inner(spans, "explore.optimize_s", "explore", op);
        result = optimizer.optimize(request);
    }
    search.push_back(seconds(search_start, Clock::now()) - build);
    const auto &c = result.counters;
    sum.points += c.points;
    sum.evaluated += c.evaluated;
    sum.prunedByBound += c.prunedByBound;
    sum.prunedByMemory += c.prunedByMemory;
}

} // namespace

void
runOptimizeMix(Run &run)
{
    const Options &options = run.options;
    std::vector<double> setup_seconds;
    std::optional<Setup> setup;
    for (int i = 0; i < kSetupRepeats; ++i) {
        const auto t0 = Clock::now();
        setup.emplace(makeSetup(options.seed, run.pool));
        setup_seconds.push_back(seconds(t0, Clock::now()));
    }

    std::vector<double> op_seconds;
    std::vector<double> search_seconds;
    std::vector<double> mapping_counts;
    std::vector<double> table_rows;
    explore::OptimizerCounters traced_sum;
    std::size_t checked = 0;
    const double blocks = std::max(
        1.0, std::round(options.seconds * kPlannedCallsPerSecond /
                        static_cast<double>(clusterShapes().size())));
    const auto before = registryCounts();
    for (std::uint64_t op = 0; op < setup->stream.size(); ++op) {
        const Call &call = setup->stream[op];
        if (static_cast<double>(call.block) >= blocks)
            break;
        const auto optimizer = optimizerFor(*setup, call, run.pool);
        const auto request = requestFor(*setup, call);
        const auto t0 = Clock::now();
        const auto result = optimizer.optimize(request);
        op_seconds.push_back(seconds(t0, Clock::now()));

        // Output checks, outside the timing.
        run.report.operation(result.status == RunStatus::Completed);
        const auto &c = result.counters;
        run.report.check(
            c.points == c.prunedByMemory + c.prunedByBound +
                            c.skippedInfeasible + c.evaluated +
                            c.cancelledUnvisited &&
                c.evaluated ==
                    c.feasible + c.infeasible + c.overMemory + c.failed,
            "optimizer counters do not partition call " +
                std::to_string(op));
        if (!result.topK.empty()) {
            const auto &best = result.topK.front();
            core::TrainingJob job = setup->job;
            job.batchSize = best.batchSize;
            auto scalar =
                setup->models.at(call.model).evaluate(best.mapping, job);
            if (options.corruptExpectation && checked == 0)
                flipLowBit(scalar.totalTime);
            run.report.check(
                std::memcmp(&scalar, &best.result, sizeof scalar) == 0,
                "optimize call " + std::to_string(op) +
                    " top-1 differs from AmpedModel::evaluate");
            ++checked;
        }
        if (run.spans.enabled())
            tracedCall(*setup, call, run.pool, run.spans, op, traced_sum,
                       search_seconds, mapping_counts, table_rows);
    }
    const auto after = registryCounts();
    checkColdPath(run.report, before, after);
    run.report.check(checked > 0, "no optimize call found a strategy");

    if (!run.spans.enabled()) {
        run.report.metric("setup_s", median(setup_seconds), "s");
        run.report.metric("op_p50_ms", centralPercentile(op_seconds, 50.0) * 1e3,
                          "ms");
        run.report.metric("op_tail_ms",
                          centralPercentile(op_seconds, 90.0) * 1e3, "ms");
        run.report.metric("items_per_s",
                          static_cast<double>(op_seconds.size()) /
                              total(op_seconds),
                          "1/s");
        return;
    }
    run.report.timing("explore.optimize_search_s", search_seconds);
    run.report.metric("mapping.mappings", median(mapping_counts), "count");
    run.report.metric("explore.kernel_table_rows", median(table_rows),
                      "count");
    const auto points = static_cast<double>(traced_sum.points);
    const auto evaluated = static_cast<double>(traced_sum.evaluated);
    run.report.metric("explore.optimize.points", points, "count");
    run.report.metric("explore.optimize.evaluated", evaluated, "count");
    run.report.metric("explore.optimize.pruned_by_bound",
                      static_cast<double>(traced_sum.prunedByBound), "count");
    run.report.metric("explore.optimize.pruned_by_memory",
                      static_cast<double>(traced_sum.prunedByMemory),
                      "count");
    run.report.metric("explore.optimize_eval_ratio",
                      points > 0 ? evaluated / points : 0.0, "ratio");
    run.report.metric(
        "trace.overhead_ms",
        (median(run.spans.durations("explore.optimize_s")) -
         median(op_seconds)) * 1e3,
        "ms");
}

} // namespace perfbench
