/**
 * @file
 * Shared helpers for the randomized sweep-kernel and optimizer
 * property tests: the 4x4 test cluster, bit-pattern views of a sweep
 * entry, and the per-grid evaluator generator that varies the model
 * (dense, MoE, minGPT), the inter-node fabric and every ModelOptions
 * knob the additive model reads.
 */

#ifndef AMPED_TESTS_EXPLORE_TEST_UTIL_HPP
#define AMPED_TESTS_EXPLORE_TEST_UTIL_HPP

#include <cstdint>
#include <cstring>
#include <random>
#include <utility>
#include <vector>

#include "core/amped_model.hpp"
#include "explore/explorer.hpp"
#include "hw/presets.hpp"
#include "model/presets.hpp"
#include "net/system_config.hpp"

namespace amped {
namespace explore {
namespace testutil {

/** The 4-node x 4-accelerator cluster every random grid maps onto. */
inline net::SystemConfig
testSystem()
{
    net::SystemConfig sys;
    sys.name = "test-4x4";
    sys.numNodes = 4;
    sys.acceleratorsPerNode = 4;
    sys.intraLink =
        net::LinkConfig{"intra", Seconds{1e-6}, BitsPerSecond{2.4e12}};
    sys.interLink =
        net::LinkConfig{"inter", Seconds{2e-6}, BitsPerSecond{2e11}};
    sys.nicsPerNode = 4;
    return sys;
}

/** The tiny test model with 4 experts, top-2, on every 2nd layer. */
inline model::TransformerConfig
tinyMoeConfig()
{
    model::TransformerConfig cfg = model::presets::tinyTest();
    cfg.name = "tiny-test-moe";
    cfg.moe.numExperts = 4;
    cfg.moe.expertsPerToken = 2;
    cfg.moe.moeLayerInterval = 2;
    return cfg;
}

inline std::uint64_t
bits(double value)
{
    std::uint64_t out = 0;
    static_assert(sizeof(out) == sizeof(value));
    std::memcpy(&out, &value, sizeof(out));
    return out;
}

/** Every numeric field of one sweep entry, as bit patterns. */
inline std::vector<std::uint64_t>
entryBits(const SweepEntry &entry)
{
    const auto &r = entry.result;
    const auto &b = r.perBatch;
    return {bits(entry.batchSize),      bits(b.computeForward),
            bits(b.computeBackward),    bits(b.weightUpdate),
            bits(b.commTpIntra),        bits(b.commTpInter),
            bits(b.commPp),             bits(b.commMoe),
            bits(b.commGradIntra),      bits(b.commGradInter),
            bits(b.bubble),             bits(r.timePerBatch),
            bits(r.numBatches),         bits(r.totalTime),
            bits(r.microbatchSize),     bits(r.numMicrobatches),
            bits(r.efficiency),         bits(r.achievedFlopsPerGpu),
            bits(r.tokensPerSecond)};
}

/** One uniformly drawn element of a fixed array. */
template <typename T, std::size_t N>
T
pickOne(std::mt19937 &rng, const T (&values)[N])
{
    std::uniform_int_distribution<std::size_t> pick(0, N - 1);
    return values[pick(rng)];
}

/**
 * Evaluator options for one grid: the paper's defaults for about
 * half the grids, otherwise every knob the additive model reads
 * drawn at random (R, ZeRO overhead, both backward multipliers, the
 * pipeline-hop multiplier, the flat gradient all-reduce ablation,
 * the gradient precision, both topology overrides and the MoE
 * switch).
 */
inline core::ModelOptions
randomOptions(std::mt19937 &rng)
{
    core::ModelOptions options;
    std::uniform_int_distribution<int> coin(0, 1);
    if (coin(rng) == 0)
        return options;
    static const double kRatios[] = {0.0, 0.5, 1.0, 1.75};
    static const double kZero[] = {0.0, 0.25, 1.0};
    static const double kBwdCompute[] = {0.0, 2.0, 3.0};
    static const double kBwdComm[] = {0.0, 1.0, 2.0};
    static const double kPpMult[] = {1.0, 2.0, 4.0};
    static const double kGradBits[] = {0.0, 16.0, 32.0};
    static const double kTopology[] = {-1.0, 0.5, 1.0, 2.0};
    options.bubbleOverlapRatio = pickOne(rng, kRatios);
    options.zeroDpOverhead = pickOne(rng, kZero);
    options.backwardComputeMultiplier = pickOne(rng, kBwdCompute);
    options.backwardCommMultiplier = pickOne(rng, kBwdComm);
    options.ppCommMultiplier = pickOne(rng, kPpMult);
    options.hierarchicalGradAllReduce = coin(rng) == 1;
    options.gradientBits = Bits{pickOne(rng, kGradBits)};
    options.intraTopologyFactorOverride = pickOne(rng, kTopology);
    options.interTopologyFactorOverride = pickOne(rng, kTopology);
    options.enableMoeComm = coin(rng) == 1;
    return options;
}

/**
 * The evaluator for random grid @p grid: odd grids run minGPT (the
 * caller's memory screen is sized for it), even grids alternate the
 * dense tiny model and its MoE variant.  The inter-node tier is a
 * pooled fabric on about a third of the grids, and the options come
 * from randomOptions().  Draws only from @p rng, so callers keep the
 * grid-shape stream separate.
 */
inline core::AmpedModel
randomGridModel(int grid, std::mt19937 &rng)
{
    model::TransformerConfig config =
        grid % 2 == 1   ? model::presets::minGpt85M()
        : grid % 4 == 2 ? tinyMoeConfig()
                        : model::presets::tinyTest();
    net::SystemConfig system = testSystem();
    std::uniform_int_distribution<int> third(0, 2);
    system.interIsPooledFabric = third(rng) == 0;
    const core::ModelOptions options = randomOptions(rng);
    return core::AmpedModel(std::move(config), hw::presets::tinyTest(),
                            hw::MicrobatchEfficiency(0.8, 4.0),
                            std::move(system), options);
}

} // namespace testutil
} // namespace explore
} // namespace amped

#endif // AMPED_TESTS_EXPLORE_TEST_UTIL_HPP
