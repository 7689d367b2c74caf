/**
 * @file
 * The AMPeD analytical performance model (paper Sec. IV, Eq. 1-12).
 *
 * Given a transformer configuration, an accelerator design, a
 * microbatch-efficiency curve, a system architecture, a parallelism
 * mapping, and a training job, the evaluator produces the per-batch
 * time breakdown, the end-to-end training time, and the achieved
 * TFLOP/s/GPU metric used throughout the paper's validation.
 */

#ifndef AMPED_CORE_AMPED_MODEL_HPP
#define AMPED_CORE_AMPED_MODEL_HPP

#include <vector>

#include "common/quantity.hpp"
#include "core/breakdown.hpp"
#include "core/options.hpp"
#include "core/training_job.hpp"
#include "hw/accelerator.hpp"
#include "hw/efficiency.hpp"
#include "mapping/parallelism.hpp"
#include "model/op_counter.hpp"
#include "net/system_config.hpp"

namespace amped {
namespace core {

/**
 * Everything AMPeD predicts for one (mapping, job) evaluation.
 */
struct EvaluationResult
{
    Breakdown perBatch;          ///< Per-batch phase times (seconds).
    double timePerBatch = 0.0;   ///< perBatch.total().
    double numBatches = 0.0;     ///< N_batch of Eq. 1.
    double totalTime = 0.0;      ///< N_batch * timePerBatch (seconds).
    double microbatchSize = 0.0; ///< ub used for eff(ub).
    double numMicrobatches = 0.0; ///< N_ub of Eq. 8.
    double efficiency = 0.0;     ///< eff(ub) applied to the MAC peak.
    double achievedFlopsPerGpu = 0.0; ///< Model FLOP/s per accelerator.
    double tokensPerSecond = 0.0; ///< End-to-end training throughput.

    /** Total training time in days (case-study reporting unit). */
    double trainingDays() const;
};

/**
 * One grid point's inputs to Eq. 1: the sum of every term of the
 * additive model over the layers it spans, plus the point's
 * microbatching, batch-count and FLOP scalars.  AmpedModel::evaluate
 * fills it term by term; the sweep kernel fills it from its memoised
 * sums.  Both hand it to AmpedModel::assemble, the one place the
 * terms are scaled, summed and turned into an EvaluationResult.
 */
struct PointTerms
{
    Seconds forwardCompute{0.0}; ///< Sum_l U_f(l), global batch (Eq. 2).
    Seconds weightUpdate{0.0};   ///< Sum_l U_w(l) (Eq. 12).
    Seconds tpIntraLayer{0.0};   ///< M_f,TP,intra of one layer (Eq. 6).
    Seconds tpInterLayer{0.0};   ///< M_f,TP,inter of one layer.
    Seconds ppLayer{0.0};        ///< Pipeline hop of one layer (Eq. 5/7).
    Seconds moeForward{0.0};     ///< Sum_l M_f,MoE(l) (Eq. 9).
    Seconds gradIntra{0.0};      ///< Sum_l M_g(l), intra stage (Eq. 10).
    Seconds gradInter{0.0};      ///< Sum_l M_g(l), inter stage (Eq. 11).
    double microbatchSize = 0.0;  ///< ub used for eff(ub).
    double numMicrobatches = 0.0; ///< N_ub of Eq. 8.
    double efficiency = 0.0;      ///< eff(ub).
    double numBatches = 0.0;      ///< N_batch of Eq. 1.
    Flops modelFlops{0.0}; ///< OpCounter::modelFlopsPerBatch(batch).
};

/**
 * The analytical evaluator.
 *
 * Immutable after construction; evaluate() is const and cheap
 * (microseconds), which is what makes the exhaustive design-space
 * exploration of the case studies practical.
 *
 * Thread safety: every const member function may be called
 * concurrently on one instance from multiple threads.  The
 * evaluator and everything it reaches (OpCounter,
 * AcceleratorConfig, MicrobatchEfficiency, SystemConfig,
 * ModelOptions, the collective cost functions) hold no mutable or
 * static state; explore::Explorer relies on this to evaluate sweep
 * points in parallel against one shared model.
 */
class AmpedModel
{
  public:
    /**
     * @param model_config Transformer architecture (validated).
     * @param accelerator Accelerator design (validated).
     * @param efficiency Microbatch-efficiency curve eff(ub).
     * @param system Cluster description (validated).
     * @param options Evaluator knobs (R, ZeRO, topology overrides...).
     * @param op_options Operation-count cost constants.
     */
    AmpedModel(model::TransformerConfig model_config,
               hw::AcceleratorConfig accelerator,
               hw::MicrobatchEfficiency efficiency,
               net::SystemConfig system, ModelOptions options = {},
               model::OpCountOptions op_options = {});

    /**
     * Evaluates Eq. 1 for a mapping and a job.
     *
     * @throws UserError when the mapping does not fit the system or
     *         the batch does not fit the mapping.
     */
    EvaluationResult evaluate(const mapping::ParallelismConfig &mapping,
                              const TrainingJob &job) const;

    /**
     * Composes Eq. 1 from one point's term sums: scales each term by
     * the mapping's parallelism, adds the pipeline bubble (Eq. 8) and
     * derives the end-to-end metrics.  Pure arithmetic that never
     * throws; evaluate() and the sweep kernel both end here, which is
     * what keeps them bit-identical.
     *
     * @param mapping The point's mapping (already validated).
     * @param batch The point's global batch size.
     * @param terms The point's term sums and scalars.
     */
    EvaluationResult assemble(const mapping::ParallelismConfig &mapping,
                              double batch,
                              const PointTerms &terms) const;

    // -----------------------------------------------------------------
    // The terms of the additive model, each a function of exactly the
    // inputs it depends on (the sweep kernel memoises the sums by
    // these inputs).  All times are seconds; batch arguments are
    // global batch sizes unless named per-replica.
    // -----------------------------------------------------------------

    /** Sum over layers of U_f(l) (Eq. 2) for the full global batch. */
    Seconds forwardComputeTotal(double batch,
                                double efficiency_value) const;

    /** Sum over layers of U_w(l) (Eq. 12). */
    Seconds weightUpdateTotal(double efficiency_value) const;

    /** M_f,TP,intra(l) of Eq. 6 (per-replica batch passed in). */
    Seconds tpIntraCommTime(const mapping::ParallelismConfig &mapping,
                            double replica_batch) const;

    /** M_f,TP,inter(l): Eq. 6 on the inter-node tier. */
    Seconds tpInterCommTime(const mapping::ParallelismConfig &mapping,
                            double replica_batch) const;

    /** max(M_f,PP,intra, M_f,PP,inter)(l) of Eq. 5/7. */
    Seconds ppCommTime(const mapping::ParallelismConfig &mapping,
                       double replica_batch) const;

    /** Sum over layers of M_f,MoE(l) (Eq. 9). */
    Seconds moeCommTotal(double replica_batch) const;

    /**
     * Sums over layers of the gradient all-reduce M_g(l) (Eq. 10-11),
     * one per tier.  Depends on the mapping only through N_TP N_PP
     * and the two DP degrees.
     */
    void gradCommTotals(const mapping::ParallelismConfig &mapping,
                        Seconds &intra_total, Seconds &inter_total) const;

    /** The operation counter (model-side knob access). */
    const model::OpCounter &opCounter() const { return opCounter_; }

    /** The accelerator description. */
    const hw::AcceleratorConfig &accelerator() const { return accel_; }

    /** The system description. */
    const net::SystemConfig &system() const { return system_; }

    /** The evaluator options. */
    const ModelOptions &options() const { return options_; }

    /** The microbatch-efficiency curve eff(ub). */
    const hw::MicrobatchEfficiency &efficiency() const
    {
        return efficiency_;
    }

    /** The accelerator rates, captured once (Eq. 2-3). */
    const hw::ComputeRateSnapshot &rates() const { return rates_; }

  private:
    model::OpCounter opCounter_;
    hw::AcceleratorConfig accel_;
    hw::MicrobatchEfficiency efficiency_;
    net::SystemConfig system_;
    ModelOptions options_;
    hw::ComputeRateSnapshot rates_;
    net::SystemSnapshot links_;
    /** 2 W(l): each layer's weight-update FLOPs (Eq. 12). */
    std::vector<Flops> updateFlops_;
};

} // namespace core
} // namespace amped

#endif // AMPED_CORE_AMPED_MODEL_HPP
