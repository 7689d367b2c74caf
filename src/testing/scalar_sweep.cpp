#include "testing/scalar_sweep.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"
#include "explore/sweep_kernel.hpp"

namespace amped {
namespace testing {

using explore::PointStatus;

explore::SweepResult
sweepJobsScalar(const core::AmpedModel &model,
                const core::MemoryModel *memory_model,
                const std::vector<mapping::ParallelismConfig> &mappings,
                const std::vector<core::TrainingJob> &jobs,
                unsigned max_workers, const CancelToken &token)
{
    explore::SweepResult out;
    const std::size_t count = mappings.size() * jobs.size();
    const unsigned workers =
        max_workers > 0 ? max_workers : ThreadPool::defaultThreadCount();

    // Grid order is mapping-major (all jobs of mapping 0, then
    // mapping 1, ...).  Every point writes only its own slot; the
    // reduction below walks the slots in grid order, so entries and
    // skip counters come out identical to a serial run at any thread
    // count.  AmpedModel::evaluate and MemoryModel::fits are const
    // and touch no shared mutable state, which is what makes
    // evaluating one shared model from every pool worker safe.
    std::vector<PointStatus> status(count, PointStatus::infeasible);
    std::vector<core::EvaluationResult> results(count);
    std::vector<std::string> failures(count);

    const auto evaluatePoint = [&](std::size_t index) {
        const auto &m = mappings[index / jobs.size()];
        const core::TrainingJob &job = jobs[index % jobs.size()];
        try {
            if (memory_model != nullptr) {
                const double ub = job.microbatching.microbatchSize(
                    job.batchSize, m);
                if (!memory_model->fits(m, job.batchSize, ub)) {
                    status[index] = PointStatus::overMemory;
                    return;
                }
            }
            results[index] = model.evaluate(m, job);
            if (!std::isfinite(results[index].totalTime)) {
                // Evaluation "succeeded" but produced garbage —
                // degrade the point instead of poisoning rankings.
                status[index] = PointStatus::failedPoint;
                failures[index] = "non-finite total time";
                return;
            }
            status[index] = PointStatus::feasible;
        } catch (const UserError &) {
            // Infeasible point (batch too small, bad mapping):
            // skip it, keep sweeping.
            status[index] = PointStatus::infeasible;
        } catch (const std::exception &e) {
            // Anything else is a real evaluation failure; NaN-pin
            // the point so one broken point cannot kill the sweep.
            status[index] = PointStatus::failedPoint;
            failures[index] = e.what();
        }
    };

    // Blocked like the kernel (kSweepBlockPoints points per block,
    // one checkpoint before each), so both share one cancellation
    // granularity and produce the same deterministic prefixes.  A
    // point costs microseconds; chunks of 8 keep the cursor cold.
    for (std::size_t base = 0; base < count;
         base += explore::kSweepBlockPoints) {
        const RunStatus stop = token.checkpoint();
        if (stop != RunStatus::Completed) {
            out.status = stop;
            out.cancelledUnvisited = count - base;
            return out;
        }

        const std::size_t block =
            std::min(explore::kSweepBlockPoints, count - base);
        const RunStatus loop = ThreadPool::shared().parallelFor(
            block, /*chunk=*/8,
            [&](std::size_t i) { evaluatePoint(base + i); }, token,
            workers);
        if (loop != RunStatus::Completed) {
            // Mid-block stop: slots are torn; discard the block.
            out.status = loop;
            out.cancelledUnvisited = count - base;
            return out;
        }

        for (std::size_t index = base; index < base + block;
             ++index) {
            switch (status[index]) {
            case PointStatus::feasible: {
                explore::SweepEntry entry;
                entry.mapping = mappings[index / jobs.size()];
                entry.batchSize = jobs[index % jobs.size()].batchSize;
                entry.result = std::move(results[index]);
                out.entries.push_back(std::move(entry));
                break;
            }
            case PointStatus::infeasible:
                ++out.skipped;
                break;
            case PointStatus::overMemory:
                ++out.memorySkipped;
                break;
            case PointStatus::failedPoint: {
                // Serial reduction loop: warnings come out in grid
                // order at every thread count.
                const auto &m = mappings[index / jobs.size()];
                const double batch =
                    jobs[index % jobs.size()].batchSize;
                log::warn("sweep point ", m.toString(), " batch ",
                          batch, " failed (", failures[index],
                          "); pinning it to nan");
                explore::SweepEntry entry;
                entry.mapping = m;
                entry.batchSize = batch;
                entry.result = explore::nanPinnedResult();
                out.entries.push_back(std::move(entry));
                ++out.failed;
                break;
            }
            }
        }
        out.visitedPoints += block;
    }
    return out;
}

} // namespace testing
} // namespace amped
