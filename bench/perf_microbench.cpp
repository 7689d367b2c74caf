/**
 * @file
 * google-benchmark microbenchmarks of the library itself: evaluator
 * latency, mapping-space enumeration and full sweeps, and the
 * discrete-event engine's task throughput.  These quantify the claim
 * that AMPeD makes exhaustive design-space exploration practical
 * (one evaluation is microseconds; a full 360-mapping sweep is
 * milliseconds).  Every sweep benchmark evaluates its whole grid on
 * each iteration: the Explorer keeps no result cache.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "case_study_util.hpp"
#include "common/parse_num.hpp"
#include "common/thread_pool.hpp"
#include "core/amped_model.hpp"
#include "explore/explorer.hpp"
#include "hw/presets.hpp"
#include "mapping/parallelism.hpp"
#include "model/presets.hpp"
#include "net/system_config.hpp"
#include "obs/json.hpp"
#include "sim/training_sim.hpp"
#include "testing/scalar_sweep.hpp"
#include "validate/calibrations.hpp"

namespace {

using namespace amped;

core::AmpedModel
caseStudyModel()
{
    return core::AmpedModel(model::presets::megatron145B(),
                            hw::presets::a100(),
                            validate::calibrations::caseStudy1(),
                            net::presets::a100Cluster1024(),
                            validate::calibrations::caseStudyOptions());
}

void
BM_EvaluateOneMapping(benchmark::State &state)
{
    const auto model = caseStudyModel();
    const auto mapping = mapping::makeMapping(8, 1, 1, 1, 2, 64);
    core::TrainingJob job;
    job.batchSize = 8192.0;
    job.totalTrainingTokens = 300e9;
    for (auto _ : state) {
        benchmark::DoNotOptimize(model.evaluate(mapping, job));
    }
}
BENCHMARK(BM_EvaluateOneMapping);

void
BM_EnumerateMappingSpace(benchmark::State &state)
{
    const auto system = net::presets::a100Cluster1024();
    for (auto _ : state) {
        mapping::MappingSpace space(system);
        benchmark::DoNotOptimize(space.enumerate());
    }
}
BENCHMARK(BM_EnumerateMappingSpace);

/**
 * One serial sweepAll over the 360-mapping space at one batch size:
 * mapping enumeration, kernel construction and the grid.
 */
void
BM_FullSweep360Mappings(benchmark::State &state)
{
    explore::Explorer explorer(caseStudyModel());
    explorer.setThreads(1); // The serial baseline.
    core::TrainingJob job;
    job.batchSize = 8192.0;
    job.totalTrainingTokens = 300e9;
    for (auto _ : state) {
        benchmark::DoNotOptimize(explorer.sweepAll({8192.0}, job));
    }
}
BENCHMARK(BM_FullSweep360Mappings);

/** The >= 200-point grid used by the parallel-sweep benchmarks. */
const std::vector<double> &
sweepBatches()
{
    static const std::vector<double> batches = {2048.0, 4096.0,
                                                8192.0, 16384.0};
    return batches;
}

/**
 * sweepAll over the 360 x 4 grid at a fixed thread count (arg; 0 =
 * AMPED_THREADS or all cores).  Compare against
 * BM_FullSweepParallel/1 for the scaling curve.
 */
void
BM_FullSweepParallel(benchmark::State &state)
{
    explore::Explorer explorer(caseStudyModel());
    explorer.setThreads(static_cast<unsigned>(state.range(0)));
    core::TrainingJob job;
    job.batchSize = 8192.0;
    job.totalTrainingTokens = 300e9;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            explorer.sweepAll(sweepBatches(), job));
    }
}
BENCHMARK(BM_FullSweepParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(0)
    ->UseRealTime();

/**
 * Serial-vs-parallel sweepAll on the same 360 x 4 grid in one
 * benchmark; the "speedup" counter is the headline number.  Expect
 * little speedup at this grid size (about 1.1x measured on a 4-core
 * host): the parallel per-point work is a small part of the sweep.
 */
void
BM_ParallelSweepSpeedup(benchmark::State &state)
{
    explore::Explorer serial(caseStudyModel());
    serial.setThreads(1);
    explore::Explorer parallel(caseStudyModel());
    parallel.setThreads(0); // AMPED_THREADS or all cores.
    core::TrainingJob job;
    job.batchSize = 8192.0;
    job.totalTrainingTokens = 300e9;

    using clock = std::chrono::steady_clock;
    double serial_seconds = 0.0;
    double parallel_seconds = 0.0;
    std::size_t points = 0;
    for (auto _ : state) {
        const auto t0 = clock::now();
        const auto serial_sweep =
            serial.sweepAll(sweepBatches(), job);
        const auto t1 = clock::now();
        const auto parallel_sweep =
            parallel.sweepAll(sweepBatches(), job);
        const auto t2 = clock::now();
        benchmark::DoNotOptimize(&serial_sweep);
        benchmark::DoNotOptimize(&parallel_sweep);
        serial_seconds +=
            std::chrono::duration<double>(t1 - t0).count();
        parallel_seconds +=
            std::chrono::duration<double>(t2 - t1).count();
        points = serial_sweep.entries.size() + serial_sweep.skipped +
                 serial_sweep.memorySkipped;
    }
    state.counters["points"] = static_cast<double>(points);
    state.counters["threads"] =
        static_cast<double>(ThreadPool::defaultThreadCount());
    state.counters["speedup"] =
        parallel_seconds > 0.0 ? serial_seconds / parallel_seconds
                               : 0.0;
}
BENCHMARK(BM_ParallelSweepSpeedup)->UseRealTime();

/** The 360-mapping space of the 1024-GPU case-study system. */
const std::vector<mapping::ParallelismConfig> &
sweepGridMappings()
{
    static const std::vector<mapping::ParallelismConfig> mappings =
        mapping::MappingSpace(net::presets::a100Cluster1024())
            .enumerate();
    return mappings;
}

/**
 * Sweep throughput of the production kernel against the scalar
 * reference loop (testing::sweepJobsScalar) on the 5,760-point grid
 * of sweepGridMappings() x 16 batch sizes.  Arg 0 selects the engine
 * (0 = scalar reference, 1 = Explorer::sweepJobs), arg 1 the thread
 * cap (0 = AMPED_THREADS or all cores).  Items are grid points;
 * bytes are the EvaluationResult payload produced per point, so
 * items_per_second is directly comparable across engines.
 */
void
BM_SweepEngineThroughput(benchmark::State &state)
{
    const bool kernel = state.range(0) != 0;
    const auto threads = static_cast<unsigned>(state.range(1));
    explore::Explorer explorer(caseStudyModel());
    explorer.setThreads(threads);
    static const std::vector<core::TrainingJob> jobs = [] {
        std::vector<core::TrainingJob> out;
        out.reserve(16);
        for (int i = 0; i < 16; ++i) {
            core::TrainingJob job;
            job.batchSize = 2048.0 + 512.0 * i;
            job.totalTrainingTokens = 300e9;
            out.push_back(job);
        }
        return out;
    }();

    std::size_t points = 0;
    for (auto _ : state) {
        const auto sweep =
            kernel ? explorer.sweepJobs(sweepGridMappings(), jobs)
                   : testing::sweepJobsScalar(explorer.model(),
                                              nullptr,
                                              sweepGridMappings(),
                                              jobs, threads);
        benchmark::DoNotOptimize(&sweep);
        points = sweep.entries.size() + sweep.skipped +
                 sweep.memorySkipped;
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(points));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(points *
                                  sizeof(core::EvaluationResult)));
    state.counters["points"] = static_cast<double>(points);
}
BENCHMARK(BM_SweepEngineThroughput)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 0})
    ->Args({1, 0})
    ->UseRealTime();

void
BM_SimulateDataParallelStep(benchmark::State &state)
{
    const std::int64_t devices = state.range(0);
    sim::TrainingSimulator simulator(
        model::presets::minGpt85M(), hw::presets::v100Sxm3(),
        validate::calibrations::minGptHgx2(),
        net::presets::nvlinkV100());
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            simulator.simulateDataParallelStep(devices, 32.0));
    }
}
BENCHMARK(BM_SimulateDataParallelStep)->Arg(2)->Arg(8)->Arg(16);

void
BM_SimulateGPipeStep(benchmark::State &state)
{
    const std::int64_t microbatches = state.range(0);
    sim::TrainingSimulator simulator(
        model::presets::minGptPipeline(), hw::presets::v100Sxm3(),
        validate::calibrations::minGptHgx2(),
        net::presets::nvlinkV100());
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            simulator.simulateGPipeStep(8, 8.0, microbatches));
    }
}
BENCHMARK(BM_SimulateGPipeStep)->Arg(8)->Arg(32)->Arg(128);

void
BM_EfficiencyFit(benchmark::State &state)
{
    hw::EfficiencyFitter fitter;
    const hw::MicrobatchEfficiency truth(0.85, 12.0);
    for (double ub = 1.0; ub <= 512.0; ub *= 2.0)
        fitter.addSample(ub, truth(ub));
    for (auto _ : state) {
        benchmark::DoNotOptimize(fitter.fit());
    }
}
BENCHMARK(BM_EfficiencyFit);

/**
 * The Case Study I jobs of the sweep-throughput grid: @p num_batches
 * batch sizes 2048, 2056, 2064, ...  Against the 360 mappings of
 * sweepGridMappings(), 2800 of them make the 1,008,000-point grid.
 */
std::vector<core::TrainingJob>
caseStudyJobs(std::size_t num_batches)
{
    core::TrainingJob job;
    job.totalTrainingTokens = 300e9;
    std::vector<core::TrainingJob> jobs;
    jobs.reserve(num_batches);
    for (std::size_t i = 0; i < num_batches; ++i) {
        job.batchSize = 2048.0 + 8.0 * static_cast<double>(i);
        jobs.push_back(job);
    }
    return jobs;
}

/**
 * The rank phase alone: Explorer::sortByTime over the grid-ordered
 * Case Study I result of 360 mappings x arg batch sizes (2800 = the
 * 1,008,000-point grid of --sweep-bench-out).  Each iteration sorts
 * a fresh copy of the sweep's entries; restoring that copy happens
 * outside the timed region.
 */
void
BM_SortByTime(benchmark::State &state)
{
    explore::Explorer explorer(caseStudyModel());
    const auto sweep = explorer.sweepJobs(
        sweepGridMappings(),
        caseStudyJobs(static_cast<std::size_t>(state.range(0))));
    std::vector<explore::SweepEntry> entries = sweep.entries;
    for (auto _ : state) {
        state.PauseTiming();
        std::copy(sweep.entries.begin(), sweep.entries.end(),
                  entries.begin());
        state.ResumeTiming();
        explore::Explorer::sortByTime(entries);
        benchmark::DoNotOptimize(entries.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(entries.size()));
    state.counters["entries"] = static_cast<double>(entries.size());
}
BENCHMARK(BM_SortByTime)
    ->Arg(16)
    ->Arg(2800)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/**
 * Golden mode: instead of timings (which are machine-dependent),
 * emit the deterministic *outputs* of the code paths the
 * microbenchmarks exercise — evaluator result, mapping-space size,
 * sweep totals, simulator step times, efficiency fit — so the
 * golden harness pins their behaviour too.
 */
int
runGoldenMode(int argc, char **argv)
{
    bench::GoldenOut golden(argc, argv);

    const auto model = caseStudyModel();
    core::TrainingJob job;
    job.batchSize = 8192.0;
    job.totalTrainingTokens = 300e9;

    const auto one = model.evaluate(
        mapping::makeMapping(8, 1, 1, 1, 2, 64), job);
    golden.add("perf/evaluate/days", one.trainingDays());
    golden.add("perf/evaluate/tflops_per_gpu",
               one.achievedFlopsPerGpu / 1e12);

    mapping::MappingSpace space(net::presets::a100Cluster1024());
    golden.add("perf/mapping_space/count",
               static_cast<double>(space.enumerate().size()));

    explore::Explorer explorer(caseStudyModel());
    explorer.setThreads(1);
    const auto sweep = explorer.sweepAll(sweepBatches(), job);
    golden.add("perf/sweep/entries",
               static_cast<double>(sweep.entries.size()));
    golden.add("perf/sweep/skipped",
               static_cast<double>(sweep.skipped));
    const auto best = explore::Explorer::best(sweep);
    golden.add("perf/sweep/best_days",
               best ? best->result.trainingDays() : std::nan(""));

    sim::TrainingSimulator simulator(
        model::presets::minGpt85M(), hw::presets::v100Sxm3(),
        validate::calibrations::minGptHgx2(),
        net::presets::nvlinkV100());
    golden.add("perf/sim/dp8_step_s",
               simulator.simulateDataParallelStep(8, 32.0).stepTime);
    sim::TrainingSimulator pipe_simulator(
        model::presets::minGptPipeline(), hw::presets::v100Sxm3(),
        validate::calibrations::minGptHgx2(),
        net::presets::nvlinkV100());
    golden.add(
        "perf/sim/gpipe8_step_s",
        pipe_simulator.simulateGPipeStep(8, 8.0, 32).stepTime);

    hw::EfficiencyFitter fitter;
    const hw::MicrobatchEfficiency truth(0.85, 12.0);
    for (double ub = 1.0; ub <= 512.0; ub *= 2.0)
        fitter.addSample(ub, truth(ub));
    const auto fitted = fitter.fit();
    golden.add("perf/eff_fit/a", fitted.a());
    golden.add("perf/eff_fit/b", fitted.b());

    return golden.finish();
}

/** The sweep-bench flags, printed with every usage error. */
constexpr const char *kSweepBenchFlags =
    "supported flags: --sweep-bench-out <path> (required), "
    "--sweep-baseline <path>, --sweep-max-regression <fraction>, "
    "--sweep-batches <count>, --sweep-threads <count>\n";

/** A bad sweep-bench command line: message and flags, status 2. */
int
sweepBenchUsage(const std::string &message)
{
    std::fprintf(stderr, "perf_microbench: %s\n%s", message.c_str(),
                 kSweepBenchFlags);
    return 2;
}

/**
 * Sweep-throughput bench mode (the CI perf gate).  Runs the same
 * (mapping x batch) grid through the scalar reference loop
 * (testing::sweepJobsScalar) and the production kernel
 * (Explorer::sweepJobs), writes a machine-readable JSON record
 * (BENCH_sweep.json: grid size, threads, per-engine seconds /
 * items_per_sec / bytes_per_sec, batch-over-scalar speedup), and —
 * when a baseline file is given — fails if the speedup regressed by
 * more than the allowed fraction.
 *
 * The gate compares the *speedup ratio*, not absolute throughput:
 * the ratio is dimensionless and machine-relative, so the checked-in
 * baseline stays meaningful across runner generations, while an
 * absolute items/sec floor would flake on every hardware change.
 *
 *   --sweep-bench-out PATH        write the JSON record (required)
 *   --sweep-baseline PATH         compare against this JSON record
 *   --sweep-max-regression FRAC   allowed speedup loss (default 0.30)
 *   --sweep-batches N             batch-size count (default 2800,
 *                                 x360 mappings = 1,008,000 points)
 *   --sweep-threads N             thread cap (0 = AMPED_THREADS)
 *
 * As a free differential check, the mode also fails when the two
 * engines disagree on any sweep counter.
 */
int
runSweepBenchMode(int argc, char **argv)
{
    std::string out_path;
    std::string baseline_path;
    double max_regression = 0.30;
    std::size_t num_batches = 2800;
    unsigned threads = 0;
    for (int i = 1; i < argc; i += 2) {
        const std::string arg(argv[i]);
        if (i + 1 == argc)
            return sweepBenchUsage(arg + " needs a value");
        const char *value = argv[i + 1];
        double number = 0.0;
        const bool numeric = amped::tryParseDouble(value, number);
        const bool count = numeric && number >= 0.0 &&
                           number == std::floor(number) &&
                           number <= 1e9;
        if (arg == "--sweep-bench-out")
            out_path = value;
        else if (arg == "--sweep-baseline")
            baseline_path = value;
        else if (arg == "--sweep-max-regression" && numeric)
            max_regression = number;
        else if (arg == "--sweep-batches" && count)
            num_batches = static_cast<std::size_t>(number);
        else if (arg == "--sweep-threads" && count)
            threads = static_cast<unsigned>(number);
        else
            return sweepBenchUsage("bad sweep-bench argument '" +
                                   arg + " " + value + "'");
    }

    const auto &mappings = sweepGridMappings();
    const auto jobs = caseStudyJobs(num_batches);
    explore::Explorer explorer(caseStudyModel());
    explorer.setThreads(threads);

    const std::size_t points = mappings.size() * jobs.size();
    const double bytes_per_point =
        static_cast<double>(sizeof(core::EvaluationResult));
    using clock = std::chrono::steady_clock;
    explore::SweepResult sweeps[2];
    double seconds[2] = {0.0, 0.0};
    for (int engine = 0; engine < 2; ++engine) {
        const auto t0 = clock::now();
        sweeps[engine] =
            engine == 1
                ? explorer.sweepJobs(mappings, jobs)
                : testing::sweepJobsScalar(explorer.model(), nullptr,
                                           mappings, jobs, threads);
        const auto t1 = clock::now();
        seconds[engine] =
            std::chrono::duration<double>(t1 - t0).count();
        std::fprintf(
            stderr, "%-6s engine: %zu points in %.3f s (%.0f/s)\n",
            engine == 1 ? "batch" : "scalar", points,
            seconds[engine],
            static_cast<double>(points) / seconds[engine]);
    }

    if (sweeps[0].entries.size() != sweeps[1].entries.size() ||
        sweeps[0].skipped != sweeps[1].skipped ||
        sweeps[0].memorySkipped != sweeps[1].memorySkipped ||
        sweeps[0].failed != sweeps[1].failed) {
        std::fprintf(stderr,
                     "perf_microbench: engine mismatch — scalar "
                     "(%zu entries, %zu/%zu/%zu counters) vs batch "
                     "(%zu entries, %zu/%zu/%zu counters)\n",
                     sweeps[0].entries.size(), sweeps[0].skipped,
                     sweeps[0].memorySkipped, sweeps[0].failed,
                     sweeps[1].entries.size(), sweeps[1].skipped,
                     sweeps[1].memorySkipped, sweeps[1].failed);
        return 1;
    }

    const double speedup =
        seconds[1] > 0.0 ? seconds[0] / seconds[1] : 0.0;

    auto run_record = [&](int engine) {
        obs::Json run = obs::Json::object();
        run.set("engine", engine == 1 ? "batch" : "scalar");
        run.set("seconds", seconds[engine]);
        run.set("items_per_sec",
                static_cast<double>(points) / seconds[engine]);
        run.set("bytes_per_sec",
                static_cast<double>(points) * bytes_per_point /
                    seconds[engine]);
        return run;
    };
    obs::Json grid = obs::Json::object();
    grid.set("mappings", mappings.size());
    grid.set("batch_sizes", jobs.size());
    grid.set("points", points);
    obs::Json thread_info = obs::Json::object();
    thread_info.set("requested",
                    threads != 0
                        ? threads
                        : ThreadPool::defaultThreadCount());
    thread_info.set("pool", ThreadPool::shared().threadCount());
    // Which host made these numbers; never part of the gate.
    obs::Json host = obs::Json::object();
    host.set("nproc", static_cast<std::int64_t>(
                          std::thread::hardware_concurrency()));
    host.set("pool_threads", ThreadPool::shared().threadCount());
    host.set("compiler", AMPED_BENCH_COMPILER);
    host.set("build_type", AMPED_BENCH_BUILD_TYPE);
    obs::Json counters = obs::Json::object();
    counters.set("entries", sweeps[0].entries.size());
    counters.set("skipped", sweeps[0].skipped);
    counters.set("memory_skipped", sweeps[0].memorySkipped);
    counters.set("failed", sweeps[0].failed);
    obs::Json root = obs::Json::object();
    root.set("schema_version", 1);
    root.set("kind", "amped.sweep_bench");
    root.set("grid", std::move(grid));
    root.set("threads", std::move(thread_info));
    root.set("host", std::move(host));
    root.set("bytes_per_point", bytes_per_point);
    root.set("counters", std::move(counters));
    obs::Json runs = obs::Json::array();
    runs.push(run_record(0));
    runs.push(run_record(1));
    root.set("runs", std::move(runs));
    root.set("speedup", speedup);

    std::ofstream out(out_path);
    if (!out) {
        std::fprintf(stderr,
                     "perf_microbench: cannot write '%s'\n",
                     out_path.c_str());
        return 2;
    }
    out << root.dump(2) << "\n";
    out.close();
    std::fprintf(stderr, "batch-over-scalar speedup: %.2fx -> %s\n",
                 speedup, out_path.c_str());

    if (baseline_path.empty())
        return 0;
    std::ifstream in(baseline_path);
    if (!in) {
        std::fprintf(stderr,
                     "perf_microbench: cannot read baseline '%s'\n",
                     baseline_path.c_str());
        return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    const auto baseline = obs::Json::parse(text.str());
    const double base_speedup = baseline.at("speedup").asDouble();
    const double floor = base_speedup * (1.0 - max_regression);
    std::fprintf(stderr,
                 "baseline speedup %.2fx, floor %.2fx (max "
                 "regression %.0f%%)\n",
                 base_speedup, floor, 100.0 * max_regression);
    if (speedup < floor) {
        std::fprintf(stderr,
                     "perf_microbench: FAIL — speedup %.2fx fell "
                     "below the %.2fx floor\n",
                     speedup, floor);
        return 1;
    }
    std::fprintf(stderr, "perf gate passed (%.2fx >= %.2fx)\n",
                 speedup, floor);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::string_view(argv[i]) == "--golden-out")
            return runGoldenMode(argc, argv);
        if (std::string_view(argv[i]) == "--sweep-bench-out")
            return runSweepBenchMode(argc, argv);
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 2;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
