#include "amped_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/units.hpp"
#include "core/compute_cost.hpp"
#include "net/collectives.hpp"

namespace amped {
namespace core {

double
EvaluationResult::trainingDays() const
{
    return totalTime / units::day;
}

AmpedModel::AmpedModel(model::TransformerConfig model_config,
                       hw::AcceleratorConfig accelerator,
                       hw::MicrobatchEfficiency efficiency,
                       net::SystemConfig system, ModelOptions options,
                       model::OpCountOptions op_options)
    : opCounter_(std::move(model_config), op_options),
      accel_(std::move(accelerator)), efficiency_(efficiency),
      system_(std::move(system)), options_(options),
      rates_(hw::computeRateSnapshot(accel_)),
      links_(system_.snapshot())
{
    // Both snapshots validate their source (accelerator first, then
    // system) before the options are checked.
    require(options_.bubbleOverlapRatio >= 0.0,
            "bubbleOverlapRatio R must be non-negative, got ",
            options_.bubbleOverlapRatio);
    require(options_.zeroDpOverhead >= 0.0,
            "zeroDpOverhead must be non-negative, got ",
            options_.zeroDpOverhead);
    require(options_.backwardComputeMultiplier >= 0.0,
            "backwardComputeMultiplier must be non-negative");
    require(options_.backwardCommMultiplier >= 0.0,
            "backwardCommMultiplier must be non-negative");
    require(options_.ppCommMultiplier >= 1.0,
            "ppCommMultiplier must be >= 1, got ",
            options_.ppCommMultiplier);

    const std::int64_t layers = opCounter_.config().numLayers;
    updateFlops_.reserve(static_cast<std::size_t>(layers));
    for (std::int64_t l = 0; l < layers; ++l)
        updateFlops_.push_back(Flops{2.0 * opCounter_.weightsPerLayer(l)});
}

Seconds
AmpedModel::forwardComputeTotal(double batch,
                                double efficiency_value) const
{
    Seconds total{0.0};
    for (std::int64_t l = 0; l < opCounter_.config().numLayers; ++l)
        total += layerForwardComputeTime(opCounter_, accel_,
                                         efficiency_value, l, batch);
    return total;
}

Seconds
AmpedModel::weightUpdateTotal(double efficiency_value) const
{
    // core::layerWeightUpdateTime summed over layers, with C_MAC taken
    // once and each layer's update FLOPs read from the constructor.
    const SecondsPerFlop c_mac = hw::cMac(accel_, efficiency_value);
    Seconds total{0.0};
    for (const Flops flops : updateFlops_)
        total += flops * c_mac * rates_.macFactor;
    return total;
}

Seconds
AmpedModel::tpIntraCommTime(const mapping::ParallelismConfig &mapping,
                            double replica_batch) const
{
    if (mapping.tpIntra <= 1)
        return Seconds{0.0};
    const double n_act =
        opCounter_.activationsTensorParallel(replica_batch);
    const Bits s_act = accel_.precisions.activationBits;
    return net::allReduceTime(mapping.tpIntra, n_act, s_act,
                              links_.intraLink,
                              options_.intraTopologyFactorOverride);
}

Seconds
AmpedModel::tpInterCommTime(const mapping::ParallelismConfig &mapping,
                            double replica_batch) const
{
    if (mapping.tpInter <= 1)
        return Seconds{0.0};
    const double n_act =
        opCounter_.activationsTensorParallel(replica_batch);
    const Bits s_act = accel_.precisions.activationBits;
    return net::allReduceTime(mapping.tpInter, n_act, s_act,
                              links_.interEffective,
                              options_.interTopologyFactorOverride);
}

Seconds
AmpedModel::ppCommTime(const mapping::ParallelismConfig &mapping,
                       double replica_batch) const
{
    const double layers =
        static_cast<double>(opCounter_.config().numLayers);
    const double n_act =
        opCounter_.activationsPipelineParallel(replica_batch);
    const Bits s_act = accel_.precisions.activationBits;

    Seconds intra{0.0};
    if (mapping.ppIntra > 1) {
        intra = net::pointToPointTime(n_act, s_act, links_.intraLink) /
                layers;
    }
    Seconds inter{0.0};
    if (mapping.ppInter > 1) {
        // A pipeline hop is node-to-node: every NIC participates
        // (scatter-gather of the activation slices), so the hop sees
        // the node-aggregate bandwidth rather than one stream's
        // share.
        inter = net::pointToPointTime(n_act, s_act, links_.interHop) /
                layers;
    }
    return std::max(intra, inter);
}

Seconds
AmpedModel::moeCommTotal(double replica_batch) const
{
    Seconds total{0.0};
    if (!options_.enableMoeComm)
        return total;
    const Bits s_act = accel_.precisions.activationBits;
    // Two all-to-all exchanges per expert layer (dispatch +
    // combine).  On a pooled fabric (photonic substrate) the
    // exchange sees the node-aggregate bandwidth; with conventional
    // per-accelerator NICs each exchange stream rides its own NIC.
    const BitsPerSecond inter_bw = links_.interIsPooledFabric
                                       ? links_.interBandwidth
                                       : links_.perStreamInterBandwidth;
    for (std::int64_t l = 0; l < opCounter_.config().numLayers; ++l) {
        const double n_act = opCounter_.activationsMoe(l, replica_batch);
        if (n_act == 0.0)
            continue; // Dense layer: adds an exact +0.0.
        total += 2.0 * net::allToAllTime(links_.numNodes, n_act, s_act,
                                         links_.intraLink,
                                         links_.interLatency, inter_bw);
    }
    return total;
}

void
AmpedModel::gradCommTotals(const mapping::ParallelismConfig &mapping,
                           Seconds &intra_total,
                           Seconds &inter_total) const
{
    intra_total = Seconds{0.0};
    inter_total = Seconds{0.0};
    if (mapping.dp() <= 1)
        return;

    // Gradients of layer l are sharded across TP ranks and live on a
    // single pipeline stage; stages reduce concurrently, so the
    // per-layer share is N_g / (N_TP N_PP) (DESIGN.md Sec. 3), with
    // N_g accounting for expert-parallel sharding on MoE layers.
    const double shards = static_cast<double>(mapping.tp() * mapping.pp());
    const Bits s_g = options_.gradientBits > Bits{0.0}
                         ? options_.gradientBits
                         : accel_.precisions.parameterBits;
    for (std::int64_t l = 0; l < opCounter_.config().numLayers; ++l) {
        const double n_g = opCounter_.gradientsPerLayer(l) / shards;
        if (options_.hierarchicalGradAllReduce) {
            intra_total += net::allReduceTime(
                mapping.dpIntra, n_g, s_g, links_.intraLink,
                options_.intraTopologyFactorOverride);
            inter_total += net::allReduceTime(
                mapping.dpInter, n_g, s_g, links_.interEffective,
                options_.interTopologyFactorOverride);
        } else {
            // Ablation: one flat all-reduce over every DP rank on the
            // slower inter-node tier.
            inter_total += net::allReduceTime(
                mapping.dp(), n_g, s_g, links_.interEffective,
                options_.interTopologyFactorOverride);
        }
    }
}

EvaluationResult
AmpedModel::evaluate(const mapping::ParallelismConfig &mapping,
                     const TrainingJob &job) const
{
    mapping.validateFor(system_);
    job.validate();

    const double batch = job.batchSize;
    PointTerms terms;
    terms.microbatchSize =
        job.microbatching.microbatchSize(batch, mapping);
    terms.numMicrobatches =
        job.microbatching.numMicrobatches(batch, mapping);
    terms.efficiency = efficiency_(terms.microbatchSize);

    // Activation traffic is per DP replica: replicas communicate in
    // parallel (DESIGN.md Sec. 3).
    const double replica_batch =
        batch / static_cast<double>(mapping.dp());

    terms.forwardCompute = forwardComputeTotal(batch, terms.efficiency);
    terms.weightUpdate = weightUpdateTotal(terms.efficiency);
    terms.tpIntraLayer = tpIntraCommTime(mapping, replica_batch);
    terms.tpInterLayer = tpInterCommTime(mapping, replica_batch);
    terms.ppLayer = ppCommTime(mapping, replica_batch);
    terms.moeForward = moeCommTotal(replica_batch);
    gradCommTotals(mapping, terms.gradIntra, terms.gradInter);
    terms.numBatches = job.numBatches(opCounter_.config().seqLength);
    terms.modelFlops = Flops{opCounter_.modelFlopsPerBatch(batch)};
    return assemble(mapping, batch, terms);
}

EvaluationResult
AmpedModel::assemble(const mapping::ParallelismConfig &mapping,
                     double batch, const PointTerms &terms) const
{
    const auto &cfg = opCounter_.config();
    const double workers = static_cast<double>(mapping.totalWorkers());
    const double pp = static_cast<double>(mapping.pp());
    const double layers = static_cast<double>(cfg.numLayers);

    // Breakdown is a plain-double reporting struct, so typed Seconds
    // unwrap via .value() at the assignment boundary.
    Breakdown bd;

    // --- Computation (Eq. 2-4, Eq. 12), scaled by all workers (Eq. 1).
    bd.computeForward = (terms.forwardCompute / workers).value();
    bd.computeBackward = (options_.backwardComputeMultiplier *
                          terms.forwardCompute / workers)
                             .value();
    bd.weightUpdate = (terms.weightUpdate / workers).value();

    // --- Forward + backward communication (Eq. 5-7, 9).
    // With pipelining, each stage owns L / N_PP layers and the
    // stages' per-layer all-reduces run concurrently, so the
    // wall-clock sum over layers is scaled by 1 / N_PP — the same
    // concurrency the paper's Eq. 7 encodes via its 1/L factor
    // (DESIGN.md Sec. 3).  PP hop communication is already a single
    // boundary's traffic after the 1/L scaling, so it is not scaled
    // again.
    const double stage_overlap = 1.0 / pp;
    const double fb = (1.0 + options_.zeroDpOverhead) *
                      (1.0 + options_.backwardCommMultiplier);
    bd.commTpIntra =
        (fb * terms.tpIntraLayer * layers * stage_overlap).value();
    bd.commTpInter =
        (fb * terms.tpInterLayer * layers * stage_overlap).value();
    bd.commPp =
        (fb * terms.ppLayer * layers * options_.ppCommMultiplier)
            .value();
    bd.commMoe = (fb * terms.moeForward * stage_overlap).value();

    // --- Gradient all-reduce (Eq. 10-11), already summed over layers.
    bd.commGradIntra = terms.gradIntra.value();
    bd.commGradInter = terms.gradInter.value();

    // --- Pipeline bubble (Eq. 8): R (N_PP - 1)/N_ub times the useful
    // per-batch step work (compute already scaled by all workers,
    // plus forward+backward communication).
    if (mapping.pp() > 1) {
        const double useful =
            bd.computeForward + bd.computeBackward + bd.commTpIntra +
            bd.commTpInter + bd.commPp + bd.commMoe;
        bd.bubble = options_.bubbleOverlapRatio * (pp - 1.0) /
                    terms.numMicrobatches * useful;
    }

    EvaluationResult result;
    result.perBatch = bd;
    result.timePerBatch = bd.total();
    result.numBatches = terms.numBatches;
    result.totalTime = result.numBatches * result.timePerBatch;
    result.microbatchSize = terms.microbatchSize;
    result.numMicrobatches = terms.numMicrobatches;
    result.efficiency = terms.efficiency;
    result.achievedFlopsPerGpu =
        terms.modelFlops.value() / (result.timePerBatch * workers);
    result.tokensPerSecond =
        batch * static_cast<double>(cfg.seqLength) /
        result.timePerBatch;
    return result;
}

} // namespace core
} // namespace amped
