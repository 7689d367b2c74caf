/**
 * @file
 * sweep-casestudy: one closed-loop caller ranks the Case Study I grid
 * (Megatron-145B on 128 x 8 A100, all 360 mappings, ~2,800 seeded
 * batch sizes, ~1M points) the way `amped explore` does:
 * Explorer::sweep, then sortByTime and truncation to the top k.
 */

#include <algorithm>
#include <cstring>
#include <numeric>
#include <optional>

#include "common/rng.hpp"
#include "explore/explorer.hpp"
#include "explore/optimizer.hpp"
#include "explore/sweep_kernel.hpp"
#include "hw/presets.hpp"
#include "mapping/parallelism.hpp"
#include "model/presets.hpp"
#include "net/system_config.hpp"
#include "validate/calibrations.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace amped;

constexpr std::size_t kBatchCount = 2800;
constexpr std::size_t kTopK = 10;
/**
 * This set-up takes ~0.1 s, short enough that single set-ups spread
 * 0.07-0.11 s within one run, so its median is taken over more of them
 * than kSetupRepeats.
 */
constexpr int kSweepSetupRepeats = 15;
constexpr std::size_t kSamplesPerIteration = 8;

struct Setup
{
    net::SystemConfig system;
    core::AmpedModel model;
    std::vector<mapping::ParallelismConfig> mappings;
    std::vector<double> batches;
    core::TrainingJob job;
};

/** 2,800 distinct batch sizes drawn from 2048 + 8 i, i < 4000. */
std::vector<double>
seededBatches(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::size_t> steps(4000);
    std::iota(steps.begin(), steps.end(), 0);
    std::shuffle(steps.begin(), steps.end(), rng.engine());
    steps.resize(kBatchCount);
    std::sort(steps.begin(), steps.end());
    std::vector<double> batches;
    batches.reserve(steps.size());
    for (std::size_t step : steps)
        batches.push_back(2048.0 + 8.0 * static_cast<double>(step));
    return batches;
}

Setup
makeSetup(std::uint64_t seed, unsigned pool)
{
    auto system = net::presets::a100Cluster1024();
    core::AmpedModel model(model::presets::megatron145B(),
                           hw::presets::a100(),
                           validate::calibrations::caseStudy1(), system,
                           validate::calibrations::caseStudyOptions());
    auto mappings = mapping::MappingSpace(system).enumerate();
    core::TrainingJob job;
    job.totalTrainingTokens = 300e9;
    job.batchSize = 2048.0;
    Setup setup{std::move(system), std::move(model), std::move(mappings),
                seededBatches(seed), job};
    // Warm-up: start the pool and run the engine on a tenth of the
    // grid, so the first timed sweep finds warm code and allocator.
    explore::Explorer explorer(setup.model);
    explorer.setThreads(pool);
    const std::vector<double> few(
        setup.batches.begin(),
        setup.batches.begin() +
            static_cast<std::ptrdiff_t>(setup.batches.size() / 10));
    (void)explorer.sweep(setup.mappings, few, setup.job);
    return setup;
}

bool
sameEntry(const explore::SweepEntry &a, const explore::SweepEntry &b)
{
    return a.mapping.toString() == b.mapping.toString() &&
           std::memcmp(&a.batchSize, &b.batchSize, sizeof a.batchSize) ==
               0 &&
           std::memcmp(&a.result, &b.result, sizeof a.result) == 0;
}

/** One ranked sweep through the layer calls, each in a span. */
explore::SweepResult
tracedIteration(const Setup &setup, unsigned pool, SpanRecorder &spans,
                std::uint64_t op, std::size_t &table_rows,
                std::size_t &result_entries)
{
    {
        // Not part of the ranked sweep (set-up enumerates once), so
        // it stays outside the iteration span.
        ScopedSpan span(spans, "mapping.enumerate_s", "mapping", op);
        (void)mapping::MappingSpace(setup.system).enumerate();
    }
    ScopedSpan iteration(spans, "bench.sweep_iteration", "bench", op);
    std::vector<core::TrainingJob> jobs;
    jobs.reserve(setup.batches.size());
    for (double batch : setup.batches) {
        core::TrainingJob job = setup.job;
        job.batchSize = batch;
        jobs.push_back(job);
    }
    std::optional<explore::SweepKernel> kernel;
    {
        ScopedSpan span(spans, "explore.kernel_build_s", "explore", op);
        kernel.emplace(setup.model, nullptr, setup.mappings, jobs, pool);
    }
    table_rows = kernel->numClasses() * kernel->numJobs();
    explore::SweepResult result;
    {
        ScopedSpan span(spans, "explore.sweep_grid_s", "explore", op);
        result = kernel->sweepGrid(pool);
    }
    result_entries = result.entries.size();
    {
        ScopedSpan span(spans, "explore.rank_s", "explore", op);
        explore::Explorer::sortByTime(result.entries);
        if (result.entries.size() > kTopK)
            result.entries.resize(kTopK);
        (void)explore::Explorer::best(result);
    }
    return result;
}

} // namespace

void
runSweepCasestudy(Run &run)
{
    const Options &options = run.options;
    std::vector<double> setup_seconds;
    std::optional<Setup> setup;
    for (int i = 0; i < kSweepSetupRepeats; ++i) {
        const auto t0 = Clock::now();
        setup.emplace(makeSetup(options.seed, run.pool));
        setup_seconds.push_back(seconds(t0, Clock::now()));
    }
    const double points = static_cast<double>(setup->mappings.size() *
                                              setup->batches.size());

    explore::Explorer explorer(setup->model);
    explorer.setThreads(run.pool);
    Rng sampler(options.seed ^ 0x5a5a5a5aULL);
    std::vector<explore::SweepEntry> samples;
    std::vector<explore::SweepEntry> top;
    std::vector<double> op_seconds;
    std::size_t table_rows = 0;
    std::size_t result_entries = 0;

    const auto before = registryCounts();
    const auto start = Clock::now();
    for (std::uint64_t op = 0;; ++op) {
        // A traced run needs at least one iteration of each kind.
        const bool measured = op >= (run.spans.enabled() ? 2u : 1u);
        if (measured && seconds(start, Clock::now()) >= options.seconds)
            break;
        // A traced run alternates untraced iterations (the overhead
        // baseline) with traced ones through the layer calls.
        const bool traced = run.spans.enabled() && op % 2 == 1;
        explore::SweepResult result;
        std::size_t entries = 0;
        if (traced) {
            result = tracedIteration(*setup, run.pool, run.spans, op,
                                     table_rows, entries);
        } else {
            const auto t0 = Clock::now();
            result =
                explorer.sweep(setup->mappings, setup->batches, setup->job);
            entries = result.entries.size();
            explore::Explorer::sortByTime(result.entries);
            const auto t1 = Clock::now();
            // Seeded sample of the full ranking, outside the timing.
            for (std::size_t s = 0; s < kSamplesPerIteration && entries;
                 ++s)
                samples.push_back(result.entries[static_cast<std::size_t>(
                    sampler.uniformInt(0, static_cast<std::int64_t>(
                                              entries - 1)))]);
            const auto t2 = Clock::now();
            if (result.entries.size() > kTopK)
                result.entries.resize(kTopK);
            op_seconds.push_back(seconds(t0, t1) + seconds(t2, Clock::now()));
        }
        run.report.operation(result.status == RunStatus::Completed);
        run.report.check(entries + result.skipped + result.memorySkipped +
                                 result.failed ==
                             static_cast<std::size_t>(points),
                         "sweep counters do not partition the grid");
        result_entries = entries;
        top = std::move(result.entries);
    }
    const auto after = registryCounts();
    checkColdPath(run.report, before, after);

    // Output checks, outside the timed region.
    for (const auto &sample : samples) {
        core::TrainingJob job = setup->job;
        job.batchSize = sample.batchSize;
        const auto scalar = setup->model.evaluate(sample.mapping, job);
        run.report.check(std::memcmp(&scalar, &sample.result,
                                     sizeof scalar) == 0,
                         "sampled sweep point " + sample.mapping.toString() +
                             " differs from AmpedModel::evaluate");
    }
    explore::Optimizer optimizer(setup->model);
    optimizer.setThreads(run.pool);
    explore::OptimizerRequest request;
    request.batchSizes = setup->batches;
    request.jobTemplate = setup->job;
    request.topK = kTopK;
    auto expected = optimizer.optimizeOver(setup->mappings, request).topK;
    if (options.corruptExpectation && !expected.empty())
        flipLowBit(expected.front().result.totalTime);
    run.report.check(expected.size() == top.size(),
                     "sweep and optimizer top-k differ in length");
    for (std::size_t i = 0; i < std::min(expected.size(), top.size()); ++i)
        run.report.check(sameEntry(top[i], expected[i]),
                         "sweep rank " + std::to_string(i + 1) +
                             " differs from the optimizer's");

    if (!run.spans.enabled()) {
        std::vector<double> rates;
        for (double s : op_seconds)
            rates.push_back(points / s);
        run.report.metric("setup_s", median(setup_seconds), "s");
        run.report.metric("op_p50_ms", median(op_seconds) * 1e3, "ms");
        run.report.metric("op_tail_ms", percentile(op_seconds, 90.0) * 1e3,
                          "ms");
        run.report.metric("items_per_s", median(rates), "1/s");
        return;
    }
    run.report.metric("explore.kernel_table_rows",
                      static_cast<double>(table_rows), "count");
    run.report.metric("explore.result_bytes",
                      static_cast<double>(result_entries *
                                          sizeof(explore::SweepEntry)),
                      "bytes-computed");
    run.report.metric("mapping.mappings",
                      static_cast<double>(setup->mappings.size()), "count");
    run.report.metric(
        "trace.overhead_ms",
        (median(run.spans.durations("bench.sweep_iteration")) -
         median(op_seconds)) * 1e3,
        "ms");
}

} // namespace perfbench
