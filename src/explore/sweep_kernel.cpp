#include "sweep_kernel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"

namespace amped {
namespace explore {

namespace {

/** Exact-match key for a (dp, pp) mapping class. */
struct DpPpKey
{
    std::int64_t dp = 0;
    std::int64_t pp = 0;
    bool operator==(const DpPpKey &o) const
    {
        return dp == o.dp && pp == o.pp;
    }
};

struct DpPpKeyHash
{
    std::size_t operator()(const DpPpKey &k) const
    {
        // Degrees are small powers of two; a shifted xor is enough.
        return static_cast<std::size_t>(k.dp) * 1315423911u ^
               static_cast<std::size_t>(k.pp);
    }
};

/** Grid points per work-queue grab inside a block. */
constexpr std::size_t kPointChunk = 256;

using core::runStep;
using core::StepOutcome;

} // namespace

struct SweepKernel::MappingInfo
{
    StepOutcome valid;          ///< validateFor(system).
    std::uint32_t classIdx = 0; ///< (dp, pp) class index.
    std::size_t gradId = 0;
};

struct SweepKernel::JobInfo
{
    StepOutcome valid;   ///< job.validate().
    StepOutcome batches; ///< job.numBatches(seq).
    double numBatches = 0.0;
    std::size_t flopsId = 0;
};

/**
 * The microbatch size, microbatch count and per-replica batch depend
 * on the mapping only through dp() and pp(), so one row serves every
 * mapping in the class.
 */
struct SweepKernel::JcEntry
{
    StepOutcome ubStep; ///< microbatchSize.
    /**
     * First failure of the remaining pre-term steps, in scalar
     * evaluation order: numMicrobatches, then efficiency.
     */
    StepOutcome preStep;
    double ub = 0.0;
    double nub = 0.0;
    double eff = 0.0;
    double replicaBatch = 0.0;
    std::size_t fwdId = 0;
    std::size_t updId = 0;
    std::size_t moeId = 0;
};

SweepKernel::SweepKernel(
    const core::AmpedModel &model,
    const core::MemoryModel *memory_model,
    const std::vector<mapping::ParallelismConfig> &mappings,
    const std::vector<core::TrainingJob> &jobs, unsigned max_workers,
    CancelToken token)
    : model_(model), memoryModel_(memory_model), mappings_(mappings),
      jobs_(jobs), token_(std::move(token)), cache_(model)
{
    const std::size_t num_jobs = jobs_.size();

    // ---- Per-mapping constants and (dp, pp) class assignment. ------
    mappingInfos_.resize(mappings_.size());
    std::vector<std::size_t> class_representative; // mapping index
    std::unordered_map<DpPpKey, std::uint32_t, DpPpKeyHash> class_ids;
    for (std::size_t i = 0; i < mappings_.size(); ++i) {
        const auto &m = mappings_[i];
        MappingInfo &info = mappingInfos_[i];
        info.valid = runStep([&] { m.validateFor(model_.system()); });
        if (info.valid.ok())
            info.gradId = cache_.registerGrad(m);
        const auto [it, inserted] = class_ids.try_emplace(
            DpPpKey{m.dp(), m.pp()},
            static_cast<std::uint32_t>(class_representative.size()));
        if (inserted)
            class_representative.push_back(i);
        info.classIdx = it->second;
    }
    numClasses_ = class_representative.size();

    // ---- Per-job constants. ----------------------------------------
    const std::int64_t seq = model_.opCounter().config().seqLength;
    jobInfos_.resize(num_jobs);
    for (std::size_t j = 0; j < num_jobs; ++j) {
        const auto &job = jobs_[j];
        JobInfo &info = jobInfos_[j];
        info.valid = runStep([&] { job.validate(); });
        info.batches =
            runStep([&] { info.numBatches = job.numBatches(seq); });
        info.flopsId = cache_.registerModelFlops(job.batchSize);
    }

    // ---- (job x class) microbatching table + term registration. ----
    jc_.resize(num_jobs * numClasses_);
    for (std::size_t j = 0; j < num_jobs; ++j) {
        const auto &job = jobs_[j];
        for (std::size_t c = 0; c < numClasses_; ++c) {
            const auto &rep = mappings_[class_representative[c]];
            JcEntry &entry = jc_[c * num_jobs + j];
            entry.ubStep = runStep([&] {
                entry.ub = job.microbatching.microbatchSize(
                    job.batchSize, rep);
            });
            if (!entry.ubStep.ok())
                continue;
            entry.preStep = runStep([&] {
                entry.nub = job.microbatching.numMicrobatches(
                    job.batchSize, rep);
                entry.eff = model_.efficiency()(entry.ub);
            });
            entry.replicaBatch =
                job.batchSize / static_cast<double>(rep.dp());
            if (!entry.preStep.ok())
                continue;
            entry.fwdId = cache_.registerForwardCompute(job.batchSize,
                                                        entry.eff);
            entry.updId = cache_.registerWeightUpdate(entry.eff);
            entry.moeId = cache_.registerMoeForward(entry.replicaBatch);
        }
    }

    primeStatus_ = cache_.prime(max_workers, token_);
}

SweepKernel::~SweepKernel() = default;

PointStatus
SweepKernel::classify(std::size_t mapping_index, std::size_t job_index,
                      core::EvaluationResult &result,
                      std::string *failure) const
{
    const mapping::ParallelismConfig &mapping = mappings_[mapping_index];
    const double batch = jobs_[job_index].batchSize;
    const MappingInfo &mi = mappingInfos_[mapping_index];
    const JobInfo &ji = jobInfos_[job_index];
    const JcEntry &jc = jc_[mi.classIdx * jobs_.size() + job_index];

    // The first failing step decides the point (a StepOutcome or a
    // Probe).
    const auto stop = [failure](const auto &step) {
        if (step.status == core::StepStatus::userError)
            return PointStatus::infeasible;
        if (failure != nullptr)
            failure->assign(step.message);
        return PointStatus::failedPoint;
    };

    // The scalar path's exact step order: with a memory model the
    // microbatch size and the fit check run before any mapping /
    // job validation (Explorer's screening lambda), otherwise the
    // microbatch size is first derived inside evaluate(), after
    // the validations.
    if (memoryModel_ != nullptr) {
        if (!jc.ubStep.ok())
            return stop(jc.ubStep);
        try {
            if (!memoryModel_->fits(mapping, batch, jc.ub))
                return PointStatus::overMemory;
        } catch (const UserError &) {
            return PointStatus::infeasible;
        } catch (const std::exception &e) {
            return stop(StepOutcome{core::StepStatus::error, e.what()});
        }
    }
    if (!mi.valid.ok())
        return stop(mi.valid);
    if (!ji.valid.ok())
        return stop(ji.valid);
    if (memoryModel_ == nullptr && !jc.ubStep.ok())
        return stop(jc.ubStep);
    if (!jc.preStep.ok())
        return stop(jc.preStep);

    // The terms, in the order AmpedModel::evaluate computes them.
    core::PointTerms terms;
    const auto fwd = cache_.probeForwardCompute(jc.fwdId);
    if (!fwd.ok())
        return stop(fwd);
    const auto upd = cache_.probeWeightUpdate(jc.updId);
    if (!upd.ok())
        return stop(upd);
    try {
        terms.tpIntraLayer =
            model_.tpIntraCommTime(mapping, jc.replicaBatch);
        terms.tpInterLayer =
            model_.tpInterCommTime(mapping, jc.replicaBatch);
        terms.ppLayer = model_.ppCommTime(mapping, jc.replicaBatch);
    } catch (const UserError &) {
        return PointStatus::infeasible;
    } catch (const std::exception &e) {
        return stop(StepOutcome{core::StepStatus::error, e.what()});
    }
    const auto moe = cache_.probeMoeForward(jc.moeId);
    if (!moe.ok())
        return stop(moe);
    const auto grad = cache_.probeGrad(mi.gradId);
    if (!grad.ok())
        return stop(grad);
    if (!ji.batches.ok())
        return stop(ji.batches);
    const auto flops = cache_.probeModelFlops(ji.flopsId);
    if (!flops.ok())
        return stop(flops);

    terms.forwardCompute = Seconds{fwd.value};
    terms.weightUpdate = Seconds{upd.value};
    terms.moeForward = Seconds{moe.value};
    terms.gradIntra = Seconds{grad.value};
    terms.gradInter = Seconds{grad.value2};
    terms.microbatchSize = jc.ub;
    terms.numMicrobatches = jc.nub;
    terms.efficiency = jc.eff;
    terms.numBatches = ji.numBatches;
    terms.modelFlops = Flops{flops.value};
    result = model_.assemble(mapping, batch, terms);
    if (!std::isfinite(result.totalTime))
        return stop(
            StepOutcome{core::StepStatus::error, "non-finite total time"});
    return PointStatus::feasible;
}

template <typename IndexOf>
RunStatus
SweepKernel::evaluateBlock(std::size_t count, IndexOf index_of,
                           Outcome *out, unsigned max_workers) const
{
    // Each slot's status is always written; its result and failure
    // only where that status makes them meaningful.
    const std::size_t num_jobs = jobs_.size();
    const std::size_t chunks = (count + kPointChunk - 1) / kPointChunk;
    return ThreadPool::shared().parallelFor(
        chunks, /*chunk=*/1,
        [&](std::size_t chunk_index) {
            const std::size_t begin = chunk_index * kPointChunk;
            const std::size_t end = std::min(begin + kPointChunk, count);
            for (std::size_t slot = begin; slot < end; ++slot) {
                const std::size_t index = index_of(slot);
                Outcome &outcome = out[slot];
                outcome.status =
                    classify(index / num_jobs, index % num_jobs,
                             outcome.result, &outcome.failure);
                if (outcome.status == PointStatus::failedPoint)
                    outcome.result = nanPinnedResult();
            }
        },
        token_,
        max_workers > 0 ? max_workers
                        : ThreadPool::defaultThreadCount());
}

core::EvaluationResult
nanPinnedResult()
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    core::EvaluationResult result;
    result.perBatch.computeForward = nan;
    result.perBatch.computeBackward = nan;
    result.perBatch.weightUpdate = nan;
    result.perBatch.commTpIntra = nan;
    result.perBatch.commTpInter = nan;
    result.perBatch.commPp = nan;
    result.perBatch.commMoe = nan;
    result.perBatch.commGradIntra = nan;
    result.perBatch.commGradInter = nan;
    result.perBatch.bubble = nan;
    result.timePerBatch = nan;
    result.numBatches = nan;
    result.totalTime = nan;
    result.microbatchSize = nan;
    result.numMicrobatches = nan;
    result.efficiency = nan;
    result.achievedFlopsPerGpu = nan;
    result.tokensPerSecond = nan;
    return result;
}

SweepResult
SweepKernel::sweepGrid(unsigned max_workers) const
{
    SweepResult out;
    const std::size_t num_jobs = jobs_.size();
    const std::size_t count = numPoints();
    if (count == 0)
        return out;
    // A stop during cache priming needs no special case: the token
    // is latched, so the first block checkpoint below observes it
    // (recording the cancellation latency exactly once) and returns
    // before any pending cache entry could be read.

    // Reserve the grid's upper bound once instead of growing by
    // doubling, which copies every entry again at each step and
    // briefly holds two buffers.  Reserved pages that are never
    // written are never resident, so a mostly infeasible grid costs
    // no memory for the capacity it does not use.
    out.entries.reserve(count);
    std::vector<Outcome> outcomes(std::min(kSweepBlockPoints, count));
    for (std::size_t base = 0; base < count;
         base += kSweepBlockPoints) {
        // THE deterministic cancellation point: exactly one
        // checkpoint per block, before evaluating it, so a stopped
        // sweep's result is always a whole number of reduced blocks.
        const RunStatus stop = token_.checkpoint();
        if (stop != RunStatus::Completed) {
            out.status = stop;
            out.cancelledUnvisited = count - base;
            return out;
        }

        const std::size_t block =
            std::min(kSweepBlockPoints, count - base);
        const RunStatus loop = evaluateBlock(
            block, [base](std::size_t slot) { return base + slot; },
            outcomes.data(), max_workers);
        if (loop != RunStatus::Completed) {
            // Mid-block stop: the block is torn, so it is discarded
            // whole — the published prefix stays exact.
            out.status = loop;
            out.cancelledUnvisited = count - base;
            return out;
        }

        // Serial grid-order reduction: entries, counters and warning
        // lines come out byte-identical to the scalar path at any
        // thread count.
        for (std::size_t slot = 0; slot < block; ++slot) {
            const std::size_t index = base + slot;
            const Outcome &outcome = outcomes[slot];
            const auto &m = mappings_[index / num_jobs];
            const double batch = jobs_[index % num_jobs].batchSize;
            switch (outcome.status) {
            case PointStatus::infeasible:
                ++out.skipped;
                continue;
            case PointStatus::overMemory:
                ++out.memorySkipped;
                continue;
            case PointStatus::failedPoint:
                log::warn("sweep point ", m.toString(), " batch ",
                          batch, " failed (", outcome.failure,
                          "); pinning it to nan");
                ++out.failed;
                break;
            case PointStatus::feasible:
                break;
            }
            out.entries.push_back(SweepEntry{m, batch, outcome.result});
        }
        out.visitedPoints += block;
    }
    return out;
}

RunStatus
SweepKernel::evaluatePoints(const std::vector<std::size_t> &indices,
                            std::vector<Outcome> &outcomes,
                            unsigned max_workers) const
{
    if (primeStatus_ != RunStatus::Completed)
        return primeStatus_;
    const std::size_t count = indices.size();
    for (std::size_t base = 0; base < count;
         base += kSweepBlockPoints) {
        // Passive poll only — checkpoint discipline belongs to the
        // caller (the optimizer checkpoints between waves).
        const RunStatus stop = token_.status();
        if (stop != RunStatus::Completed)
            return stop;

        const std::size_t block =
            std::min(kSweepBlockPoints, count - base);
        const std::size_t first = outcomes.size();
        outcomes.resize(first + block);
        const RunStatus loop = evaluateBlock(
            block,
            [&](std::size_t slot) { return indices[base + slot]; },
            outcomes.data() + first, max_workers);
        if (loop != RunStatus::Completed) {
            outcomes.resize(first); // Torn block: discard it whole.
            return loop;
        }
    }
    return RunStatus::Completed;
}

} // namespace explore
} // namespace amped
