#include "batch_terms.hpp"

#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/thread_pool.hpp"

namespace amped {
namespace core {

namespace {

/** The bit pattern of a double (exact-match memo keys). */
std::uint64_t
doubleBits(double value)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(value), "double is 64-bit");
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

/** Primes one entry or op table: runs @p compute and records it. */
template <typename Slot, typename Compute>
void
record(Slot &slot, Compute &&compute)
{
    slot.outcome = runStep(std::forward<Compute>(compute));
    slot.primed = true;
}

} // namespace

std::size_t
SweepTermCache::PairKeyHash::operator()(const PairKey &k) const
{
    Fnv1a hasher;
    hasher.bytes(&k.a, sizeof(k.a));
    hasher.bytes(&k.b, sizeof(k.b));
    return static_cast<std::size_t>(hasher.digest());
}

std::size_t
SweepTermCache::TripleKeyHash::operator()(const TripleKey &k) const
{
    Fnv1a hasher;
    hasher.bytes(&k.a, sizeof(k.a));
    hasher.bytes(&k.b, sizeof(k.b));
    hasher.bytes(&k.c, sizeof(k.c));
    return static_cast<std::size_t>(hasher.digest());
}

SweepTermCache::SweepTermCache(const AmpedModel &model) : model_(model)
{
    moeActive_ = model_.options().enableMoeComm &&
                 model_.opCounter().config().moe.numExperts > 0;
    if (!moeActive_) {
        // Sentinel id 0: every MoE probe resolves to an exact +0.0,
        // matching AmpedModel::moeCommTotal.
        Entry zero;
        zero.primed = true;
        moe_.push_back(std::move(zero));
    }
}

std::size_t
SweepTermCache::registerForwardCompute(double batch, double eff)
{
    const PairKey key{doubleBits(batch), doubleBits(eff)};
    const auto it = forwardIds_.find(key);
    if (it != forwardIds_.end())
        return it->second;

    const std::uint64_t batch_key = doubleBits(batch);
    std::size_t table = 0;
    const auto table_it = opsTableIds_.find(batch_key);
    if (table_it != opsTableIds_.end()) {
        table = table_it->second;
    } else {
        table = opsTables_.size();
        OpsTable ops;
        ops.batch = batch;
        opsTables_.push_back(std::move(ops));
        opsTableIds_.emplace(batch_key, table);
    }

    const std::size_t id = forward_.size();
    Entry entry;
    entry.keyA = batch;
    entry.keyB = eff;
    forward_.push_back(std::move(entry));
    forwardOpsTable_.push_back(table);
    forwardIds_.emplace(key, id);
    return id;
}

std::size_t
SweepTermCache::registerWeightUpdate(double eff)
{
    const std::uint64_t key = doubleBits(eff);
    const auto it = updateIds_.find(key);
    if (it != updateIds_.end())
        return it->second;
    const std::size_t id = update_.size();
    Entry entry;
    entry.keyA = eff;
    update_.push_back(std::move(entry));
    updateIds_.emplace(key, id);
    return id;
}

std::size_t
SweepTermCache::registerMoeForward(double replica_batch)
{
    if (!moeActive_)
        return 0; // The +0.0 sentinel seeded by the constructor.
    const std::uint64_t key = doubleBits(replica_batch);
    const auto it = moeIds_.find(key);
    if (it != moeIds_.end())
        return it->second;
    const std::size_t id = moe_.size();
    Entry entry;
    entry.keyA = replica_batch;
    moe_.push_back(std::move(entry));
    moeIds_.emplace(key, id);
    return id;
}

std::size_t
SweepTermCache::registerGrad(const mapping::ParallelismConfig &mapping)
{
    // The per-layer gradient all-reduce depends on the mapping only
    // through N_TP * N_PP (gradient sharding) and the two DP tiers.
    const TripleKey key{mapping.tp() * mapping.pp(), mapping.dpIntra,
                        mapping.dpInter};
    const auto it = gradIds_.find(key);
    if (it != gradIds_.end())
        return it->second;
    const std::size_t id = grad_.size();
    grad_.push_back(Entry{});
    gradMappings_.push_back(mapping);
    gradIds_.emplace(key, id);
    return id;
}

std::size_t
SweepTermCache::registerModelFlops(double batch)
{
    const std::uint64_t key = doubleBits(batch);
    const auto it = flopsIds_.find(key);
    if (it != flopsIds_.end())
        return it->second;
    const std::size_t id = flops_.size();
    Entry entry;
    entry.keyA = batch;
    flops_.push_back(std::move(entry));
    flopsIds_.emplace(key, id);
    return id;
}

void
SweepTermCache::primeOpsTable(OpsTable &table) const
{
    record(table, [&] {
        const auto &counter = model_.opCounter();
        const std::int64_t layers = counter.config().numLayers;
        table.terms.clear();
        table.layerEnd.clear();
        table.layerEnd.reserve(static_cast<std::size_t>(layers));
        for (std::int64_t l = 0; l < layers; ++l) {
            for (const auto &op : counter.layerOps(l, table.batch)) {
                OpTerm term;
                term.macs2 = 2.0 * op.macs;
                term.nonlinear = op.nonlinear;
                table.terms.push_back(term);
            }
            table.layerEnd.push_back(
                static_cast<std::uint32_t>(table.terms.size()));
        }
    });
}

void
SweepTermCache::primeForwardCompute(Entry &entry) const
{
    const std::size_t table_index =
        forwardOpsTable_[static_cast<std::size_t>(&entry -
                                                  forward_.data())];
    const OpsTable &table = opsTables_[table_index];
    if (!table.outcome.ok()) {
        entry.outcome = table.outcome;
        entry.primed = true;
        return;
    }
    record(entry, [&] {
        // core::layerForwardComputeTime summed over layers, replayed
        // on the op table with the model's rate snapshot: identical
        // operations in identical order (per-layer sub-accumulator
        // included) yield identical bits.
        const hw::ComputeRateSnapshot &rates = model_.rates();
        const SecondsPerFlop c_mac =
            hw::cMac(model_.accelerator(), entry.keyB);
        Seconds fwd_total{0.0};
        std::size_t begin = 0;
        for (const std::uint32_t end : table.layerEnd) {
            Seconds time{0.0};
            for (std::size_t i = begin; i < end; ++i) {
                time += Flops{table.terms[i].macs2} * c_mac *
                        rates.macFactor;
                time += Flops{table.terms[i].nonlinear} *
                        rates.cNonlin * rates.nonlinFactor;
            }
            fwd_total += time;
            begin = end;
        }
        entry.value = fwd_total.value();
    });
}

void
SweepTermCache::primeWeightUpdate(Entry &entry) const
{
    record(entry, [&] {
        entry.value = model_.weightUpdateTotal(entry.keyA).value();
    });
}

void
SweepTermCache::primeMoeForward(Entry &entry) const
{
    record(entry, [&] {
        entry.value = model_.moeCommTotal(entry.keyA).value();
    });
}

void
SweepTermCache::primeGrad(Entry &entry) const
{
    const mapping::ParallelismConfig &mapping =
        gradMappings_[static_cast<std::size_t>(&entry - grad_.data())];
    record(entry, [&] {
        Seconds intra{0.0};
        Seconds inter{0.0};
        model_.gradCommTotals(mapping, intra, inter);
        entry.value = intra.value();
        entry.value2 = inter.value();
    });
}

void
SweepTermCache::primeModelFlops(Entry &entry) const
{
    record(entry, [&] {
        entry.value = model_.opCounter().modelFlopsPerBatch(entry.keyA);
    });
}

RunStatus
SweepTermCache::prime(unsigned max_workers, const CancelToken &token)
{
    const std::size_t workers =
        max_workers > 0 ? max_workers
                        : ThreadPool::defaultThreadCount();

    // Phase 1: per-batch op tables (forward entries read them).
    std::vector<std::size_t> pending_tables;
    for (std::size_t i = 0; i < opsTables_.size(); ++i)
        if (!opsTables_[i].primed)
            pending_tables.push_back(i);
    if (!pending_tables.empty()) {
        const RunStatus status = ThreadPool::shared().parallelFor(
            pending_tables.size(), /*chunk=*/1,
            [&](std::size_t i) {
                primeOpsTable(opsTables_[pending_tables[i]]);
            },
            token, workers);
        if (status != RunStatus::Completed)
            return status;
    }

    // Phase 2: every pending entry, each an independent pure
    // computation (deterministic at any worker count).
    enum Kind : unsigned char
    {
        kForward,
        kUpdate,
        kMoe,
        kGrad,
        kFlops
    };
    std::vector<std::pair<Kind, std::size_t>> work;
    const auto collect = [&work](Kind kind,
                                 const std::vector<Entry> &entries) {
        for (std::size_t i = 0; i < entries.size(); ++i)
            if (!entries[i].primed)
                work.emplace_back(kind, i);
    };
    collect(kForward, forward_);
    collect(kUpdate, update_);
    collect(kMoe, moe_);
    collect(kGrad, grad_);
    collect(kFlops, flops_);
    if (work.empty())
        return RunStatus::Completed;

    return ThreadPool::shared().parallelFor(
        work.size(), /*chunk=*/8,
        [&](std::size_t i) {
            const auto [kind, index] = work[i];
            switch (kind) {
            case kForward:
                primeForwardCompute(forward_[index]);
                break;
            case kUpdate:
                primeWeightUpdate(update_[index]);
                break;
            case kMoe:
                primeMoeForward(moe_[index]);
                break;
            case kGrad:
                primeGrad(grad_[index]);
                break;
            case kFlops:
                primeModelFlops(flops_[index]);
                break;
            }
        },
        token, workers);
}

} // namespace core
} // namespace amped
