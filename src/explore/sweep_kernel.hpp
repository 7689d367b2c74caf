/**
 * @file
 * The sweep engine: the one per-point evaluation kernel behind
 * Explorer sweeps and the branch-and-bound strategy optimizer.
 *
 * Calling core::AmpedModel::evaluate per grid point re-walks the
 * per-layer op tables and re-prices every collective, although
 * across a (mapping x job) grid almost all of that work is shared.
 * A SweepKernel restructures the computation around the grid.  It
 * owns, for one (mappings x jobs) grid:
 *
 *  1. The grid-constant tables: per-mapping facts, per-job facts, and
 *     the (job x (dp, pp)-class) table of microbatching facts.  Two
 *     mappings share a class when they agree on the total
 *     data-parallel and pipeline degrees; within a class every
 *     compute term of the additive model is constant and only the
 *     communication terms vary with the intra/inter split.
 *  2. A primed core::SweepTermCache serving every distinct per-layer
 *     sum as an O(1) probe (primed once, in parallel).
 *  3. The step-order classifier (classify) that decides whether a
 *     grid point is feasible / infeasible / over-memory / failed and,
 *     for a feasible point, hands its term sums to
 *     core::AmpedModel::assemble.  sweepGrid runs it block by block
 *     on the shared pool and reduces each block serially in grid
 *     order into a SweepResult; evaluatePoints serves an index list;
 *     the optimizer's bound calls it directly.
 *
 * The result is byte-identical to evaluating every point through the
 * scalar AmpedModel::evaluate — entry order and values, skip /
 * memory-skip / failed counters, NaN pinning, and the grid-ordered
 * warning lines — at every thread count: both paths compose the
 * point through the same AmpedModel::assemble from the same term
 * functions (core/batch_terms.hpp).  testing::sweepJobsScalar is the
 * scalar reference; tests/test_explore_batch.cpp holds the two to the
 * same bytes over randomized grids.
 */

#ifndef AMPED_EXPLORE_SWEEP_KERNEL_HPP
#define AMPED_EXPLORE_SWEEP_KERNEL_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "core/batch_terms.hpp"
#include "core/memory_model.hpp"
#include "explore/explorer.hpp"

namespace amped {
namespace explore {

/**
 * Points per block: caps the block's outcome buffer at a few
 * megabytes, and — because sweepGrid calls CancelToken::checkpoint()
 * exactly once per block — defines the cancellation granularity: a
 * stopped sweep's result is always a whole number of blocks.
 */
inline constexpr std::size_t kSweepBlockPoints = std::size_t{1} << 16;

/**
 * A result with every numeric field pinned to NaN — the golden
 * layer's marker for "this point has no value".  Failed points are
 * degraded to it instead of aborting the sweep.
 */
core::EvaluationResult nanPinnedResult();

/** How one grid point was classified. */
enum class PointStatus : unsigned char
{
    infeasible,
    overMemory,
    feasible,
    failedPoint
};

/**
 * One grid's evaluation state: constant tables, primed term cache
 * and the exact per-point evaluator.  Construction is
 * single-threaded apart from the internally parallel cache prime;
 * afterwards every member function is const and thread-safe.
 *
 * The mapping and job vectors are held by reference and must outlive
 * the kernel (both callers — Explorer::sweepJobs and the Optimizer —
 * own them for the duration of the search).
 */
class SweepKernel
{
  public:
    /**
     * Builds the tables and primes the term cache for one grid.
     *
     * @param model The evaluator (const; never mutated).
     * @param memory_model Optional memory screen (nullptr = off).
     * @param mappings Grid rows (mapping-major order).
     * @param jobs Grid columns.
     * @param max_workers Parallelism cap for priming (0 = pool).
     * @param token Cooperative stop request, observed by the prime
     *        (see primeStatus()) and by every subsequent sweepGrid /
     *        evaluatePoints call.  Inert by default.
     */
    SweepKernel(const core::AmpedModel &model,
                const core::MemoryModel *memory_model,
                const std::vector<mapping::ParallelismConfig> &mappings,
                const std::vector<core::TrainingJob> &jobs,
                unsigned max_workers, CancelToken token = {});

    ~SweepKernel();

    /**
     * How the construction-time cache prime ended.  Non-Completed
     * means the kernel must not evaluate points (term probes would
     * hit unprimed entries); callers surface the status instead.
     */
    RunStatus primeStatus() const { return primeStatus_; }

    /** Outcome of evaluating one grid point exactly. */
    struct Outcome
    {
        PointStatus status = PointStatus::infeasible;
        std::string failure; ///< Set when status == failedPoint.
        /** Valid when feasible; NaN-pinned when failed. */
        core::EvaluationResult result;
    };

    /**
     * Evaluates the whole grid block by block and reduces it in grid
     * order — the engine behind Explorer::sweepJobs.
     *
     * The construction token is checkpointed once before each block;
     * a stop returns the deterministic block-prefix (status /
     * visitedPoints / cancelledUnvisited set accordingly).
     */
    SweepResult sweepGrid(unsigned max_workers) const;

    /**
     * Evaluates an arbitrary list of grid indices (index = mapping
     * index * numJobs() + job index) and appends one Outcome per
     * index, in list order.  Evaluation runs on the shared pool;
     * results are deterministic at any worker count.
     *
     * Cancellable via the construction token (passive status() polls
     * only — the caller owns the checkpoint discipline): on a stop
     * the partially evaluated block is discarded, so outcomes grew by
     * a multiple of the block size, and the stop status is returned.
     */
    RunStatus evaluatePoints(const std::vector<std::size_t> &indices,
                             std::vector<Outcome> &outcomes,
                             unsigned max_workers) const;

    /**
     * Classifies one grid point in the scalar path's exact step order
     * and, when every step succeeds, assembles its result through
     * core::AmpedModel::assemble.  The first failing step decides: a
     * UserError makes the point infeasible, any other failure (or a
     * non-finite total time) makes it failedPoint.
     *
     * @param result Receives the assembled result when feasible.
     * @param failure When non-null, receives a failedPoint's message.
     */
    PointStatus classify(std::size_t mapping_index, std::size_t job_index,
                         core::EvaluationResult &result,
                         std::string *failure) const;

    std::size_t numMappings() const { return mappings_.size(); }
    std::size_t numJobs() const { return jobs_.size(); }
    std::size_t numPoints() const
    {
        return mappings_.size() * jobs_.size();
    }

    /** Number of distinct (dp, pp) mapping classes. */
    std::size_t numClasses() const { return numClasses_; }

  private:
    struct MappingInfo; ///< Grid-constant facts about one mapping.
    struct JobInfo;     ///< Grid-constant facts about one job.
    struct JcEntry;     ///< Per-(job x class) microbatching facts.

    /**
     * Evaluates @p count points, the slot-th at grid index
     * index_of(slot), into out[0, count) on the shared pool.
     */
    template <typename IndexOf>
    RunStatus evaluateBlock(std::size_t count, IndexOf index_of,
                            Outcome *out, unsigned max_workers) const;

    const core::AmpedModel &model_;
    const core::MemoryModel *memoryModel_;
    const std::vector<mapping::ParallelismConfig> &mappings_;
    const std::vector<core::TrainingJob> &jobs_;

    CancelToken token_;
    RunStatus primeStatus_ = RunStatus::Completed;

    core::SweepTermCache cache_;
    std::vector<MappingInfo> mappingInfos_;
    std::vector<JobInfo> jobInfos_;
    std::vector<JcEntry> jc_;
    std::size_t numClasses_ = 0;
};

} // namespace explore
} // namespace amped

#endif // AMPED_EXPLORE_SWEEP_KERNEL_HPP
