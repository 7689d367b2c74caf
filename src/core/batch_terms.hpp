/**
 * @file
 * Batch-friendly, memoized evaluation of the AMPeD model terms.
 *
 * The design-space sweeps (paper Sec. VI) evaluate the same additive
 * model at up to millions of (mapping, job) grid points.  The scalar
 * evaluator (core::AmpedModel::evaluate) re-derives every per-layer
 * sum — forward compute, weight update, MoE all-to-all, gradient
 * all-reduce — from scratch at every point, allocating a
 * std::vector<SublayerOps> per layer per point.  Across a grid those
 * sums only depend on a handful of distinct inputs:
 *
 *   - forward compute:   (global batch, eff(ub))
 *   - weight update:     eff(ub)
 *   - MoE forward comm:  per-replica batch
 *   - gradient comm:     (N_TP * N_PP, dpIntra, dpInter)
 *   - model FLOPs:       global batch
 *
 * SweepTermCache deduplicates those inputs, computes each distinct
 * sum once (in parallel), and serves the results to the batched sweep
 * kernel (explore/sweep_kernel.cpp) as O(1) probes.
 *
 * Bit-exactness contract: every entry is the value of the
 * corresponding AmpedModel term (weightUpdateTotal, moeCommTotal,
 * gradCommTotals, OpCounter::modelFlopsPerBatch), computed by that
 * very function.  The one replay is the forward compute sum, which
 * re-prices a per-batch table of every layer's sublayer op counts at
 * each efficiency with core::layerForwardComputeTime's operations in
 * its order (per-layer sub-accumulators included).  The sweep kernel
 * then hands the sums to AmpedModel::assemble, so a sweep evaluated
 * through this cache is byte-identical to one evaluated through
 * AmpedModel::evaluate.  tests/test_explore_batch.cpp asserts this
 * over randomized grids; the goldens pin it for the paper's case
 * studies.
 *
 * Failure semantics: registration never throws.  If computing a
 * cached sum throws (the scalar path would throw the same exception
 * at every point sharing the inputs), the entry is poisoned and its
 * probe reports the category (UserError vs other) and the message,
 * so the sweep engine classifies the point exactly as the scalar
 * engine would (skip vs NaN-pin).
 *
 * Thread safety: construction and register*() calls are
 * single-threaded; prime() fills all registered entries (internally
 * parallel); after prime() returns, every probe is const and safe
 * to call concurrently.
 */

#ifndef AMPED_CORE_BATCH_TERMS_HPP
#define AMPED_CORE_BATCH_TERMS_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "core/amped_model.hpp"

namespace amped {
namespace core {

/** How one step of the scalar evaluation path ended. */
enum class StepStatus : std::uint8_t
{
    ok,        ///< The step produced its value.
    userError, ///< The scalar path raises UserError(message) here.
    error      ///< It raises another std::exception(message) here.
};

/** A step's status plus the message of its failure. */
struct StepOutcome
{
    StepStatus status = StepStatus::ok;
    std::string message; ///< what() of the failure.

    bool ok() const { return status == StepStatus::ok; }
};

/**
 * Runs @p step and records how it ended: the category (UserError vs
 * any other exception) and the message the scalar path raises.  The
 * term cache records its entries with it and the sweep kernel its
 * grid-constant steps, so both classify a failure as evaluate() does.
 */
template <typename F>
StepOutcome
runStep(F &&step)
{
    try {
        step();
        return {};
    } catch (const UserError &e) {
        return {StepStatus::userError, e.what()};
    } catch (const std::exception &e) {
        return {StepStatus::error, e.what()};
    }
}

/**
 * Memoized per-term evaluator for batched sweeps.  See the file
 * comment for the contract.
 */
class SweepTermCache
{
  public:
    /**
     * @param model The evaluator whose terms are cached.  The model
     *        must outlive the cache (the cache keeps references).
     */
    explicit SweepTermCache(const AmpedModel &model);

    // -----------------------------------------------------------------
    // Registration: dedup by value, return a stable entry id.
    // Single-threaded; ids are valid after the next prime() call.
    // -----------------------------------------------------------------

    /** Sum over layers of U_f(l, batch, eff) (Eq. 2). */
    std::size_t registerForwardCompute(double batch, double eff);

    /** Sum over layers of U_w(l, eff) (Eq. 12). */
    std::size_t registerWeightUpdate(double eff);

    /** Sum over layers of M_f,MoE(l, replica_batch) (Eq. 9). */
    std::size_t registerMoeForward(double replica_batch);

    /** Sums over layers of the gradient all-reduce (Eq. 10-11). */
    std::size_t registerGrad(const mapping::ParallelismConfig &mapping);

    /** OpCounter::modelFlopsPerBatch(batch). */
    std::size_t registerModelFlops(double batch);

    /**
     * Computes every registered entry that has not been primed yet.
     * Parallelized on the shared ThreadPool (results are
     * deterministic: each entry is an independent pure computation).
     *
     * Cancellable: @p token is polled between phases and between
     * parallelFor chunks.  On a stop, unfilled entries stay pending —
     * a later prime() (with a fresh token) completes them; probes
     * before that assert.  Inert token = always Completed.
     *
     * @param max_workers Parallelism cap (0 = whole pool).
     */
    RunStatus prime(unsigned max_workers = 0,
                    const CancelToken &token = {});

    // -----------------------------------------------------------------
    // Probes: const and thread-safe after prime().  A probe reports
    // the recorded outcome as a status instead of throwing, so one
    // classifier serves the sweep kernel and the optimizer's bound
    // without exception round-trips.
    // -----------------------------------------------------------------

    /** One primed entry. */
    struct Probe
    {
        StepStatus status = StepStatus::ok;
        double value = 0.0;  ///< The sum (seconds; FLOPs for flops).
        double value2 = 0.0; ///< Grad inter sum; unused otherwise.
        std::string_view message; ///< The failure, when not ok.

        bool ok() const { return status == StepStatus::ok; }
    };

    Probe probeForwardCompute(std::size_t id) const
    {
        return probe(forward_[id]);
    }
    Probe probeWeightUpdate(std::size_t id) const
    {
        return probe(update_[id]);
    }
    Probe probeMoeForward(std::size_t id) const
    {
        return probe(moe_[id]);
    }
    /** value = intra-stage sum, value2 = inter-stage sum. */
    Probe probeGrad(std::size_t id) const { return probe(grad_[id]); }
    Probe probeModelFlops(std::size_t id) const
    {
        return probe(flops_[id]);
    }

  private:
    /** One memoized sum (two values cover the two-part grad case). */
    struct Entry
    {
        double keyA = 0.0; ///< First input (batch / eff / replica...).
        double keyB = 0.0; ///< Second input when the key is a pair.
        double value = 0.0;
        double value2 = 0.0;
        bool primed = false; ///< False until prime() fills it.
        StepOutcome outcome;
    };

    /** Exact-match dedup key over two doubles (bit patterns). */
    struct PairKey
    {
        std::uint64_t a = 0, b = 0;
        bool operator==(const PairKey &o) const
        {
            return a == o.a && b == o.b;
        }
    };
    struct PairKeyHash
    {
        std::size_t operator()(const PairKey &k) const;
    };

    /** Exact-match dedup key over three integers. */
    struct TripleKey
    {
        std::int64_t a = 0, b = 0, c = 0;
        bool operator==(const TripleKey &o) const
        {
            return a == o.a && b == o.b && c == o.c;
        }
    };
    struct TripleKeyHash
    {
        std::size_t operator()(const TripleKey &k) const;
    };

    /** Per-sublayer constants of one layer's forward pass. */
    struct OpTerm
    {
        double macs2 = 0.0;    ///< 2.0 * SublayerOps::macs.
        double nonlinear = 0.0; ///< SublayerOps::nonlinear.
    };

    /** Per-batch table of every layer's forward-op constants. */
    struct OpsTable
    {
        double batch = 0.0;
        std::vector<OpTerm> terms;        ///< All layers, flattened.
        std::vector<std::uint32_t> layerEnd; ///< End index per layer.
        bool primed = false;
        StepOutcome outcome;
    };

    void primeOpsTable(OpsTable &table) const;
    void primeForwardCompute(Entry &entry) const;
    void primeWeightUpdate(Entry &entry) const;
    void primeMoeForward(Entry &entry) const;
    void primeGrad(Entry &entry) const;
    void primeModelFlops(Entry &entry) const;

    /** A primed entry in its non-throwing form. */
    static Probe probe(const Entry &entry)
    {
        AMPED_ASSERT(entry.primed, "SweepTermCache probe before prime()");
        return {entry.outcome.status, entry.value, entry.value2,
                entry.outcome.message};
    }

    const AmpedModel &model_;
    bool moeActive_ = false; ///< enableMoeComm and >= 1 MoE layer.

    std::unordered_map<PairKey, std::size_t, PairKeyHash> forwardIds_;
    std::unordered_map<std::uint64_t, std::size_t> updateIds_;
    std::unordered_map<std::uint64_t, std::size_t> moeIds_;
    std::unordered_map<TripleKey, std::size_t, TripleKeyHash> gradIds_;
    std::unordered_map<std::uint64_t, std::size_t> flopsIds_;
    std::unordered_map<std::uint64_t, std::size_t> opsTableIds_;

    std::vector<Entry> forward_;
    std::vector<Entry> update_;
    std::vector<Entry> moe_;
    std::vector<Entry> grad_;
    std::vector<Entry> flops_;
    std::vector<OpsTable> opsTables_;
    std::vector<std::size_t> forwardOpsTable_; ///< forward id -> table.
    /** Representative mapping per grad entry (same key => same sums). */
    std::vector<mapping::ParallelismConfig> gradMappings_;
};

} // namespace core
} // namespace amped

#endif // AMPED_CORE_BATCH_TERMS_HPP
