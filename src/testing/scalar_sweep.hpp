/**
 * @file
 * The scalar reference sweep: one core::AmpedModel::evaluate call
 * per (mapping, job) grid point.
 *
 * Production sweeps run explore::SweepKernel.  This loop is the
 * oracle the kernel is held to: it evaluates every point through the
 * plain scalar model and must agree with SweepKernel::sweepGrid byte
 * for byte — entry order and values, skip / memory-skip / failed
 * counters, NaN pinning, warning lines, and the block prefix left by
 * a cancelled run.  tests/test_explore_batch.cpp and
 * tests/test_explore_cancel.cpp compare the two, and perf_microbench
 * times the kernel against it.
 */

#ifndef AMPED_TESTING_SCALAR_SWEEP_HPP
#define AMPED_TESTING_SCALAR_SWEEP_HPP

#include <vector>

#include "common/cancel.hpp"
#include "core/memory_model.hpp"
#include "explore/explorer.hpp"

namespace amped {
namespace testing {

/**
 * Evaluates the (mapping x job) grid point by point.
 *
 * The grid is walked in explore::kSweepBlockPoints blocks with one
 * @p token checkpoint before each, exactly like the kernel, so a stop
 * returns the same deterministic block prefix.
 *
 * @param model The evaluator (const; never mutated).
 * @param memory_model Optional memory screen (nullptr = disabled).
 * @param mappings Grid rows (mapping-major order).
 * @param jobs Grid columns.
 * @param max_workers Parallelism cap (0 = AMPED_THREADS or every
 *        hardware thread).
 * @param token Cooperative stop request (inert by default).
 */
explore::SweepResult
sweepJobsScalar(const core::AmpedModel &model,
                const core::MemoryModel *memory_model,
                const std::vector<mapping::ParallelismConfig> &mappings,
                const std::vector<core::TrainingJob> &jobs,
                unsigned max_workers, const CancelToken &token = {});

} // namespace testing
} // namespace amped

#endif // AMPED_TESTING_SCALAR_SWEEP_HPP
