/**
 * @file
 * Embedding table with pooled multi-hot lookup — the sparse-feature half
 * of a DLRM (Fig 3 of the paper). The hash trick (index modulo table
 * size) is applied inside the table, so collisions behave as they do in
 * production: semantically distinct IDs share rows when the hash size is
 * small, degrading accuracy but shrinking the table.
 *
 * Storage is pluggable (nn/embedding_backend.h): the bag owns the
 * parameter tensor, batch-parallel orchestration, and the backward
 * kernel; the installed EmbeddingBackend owns how lookups and sparse
 * updates touch memory and what each access is charged. The default
 * DramBackend reproduces the historical flat-table behavior exactly.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace recsim {
namespace util {
class Rng;
} // namespace util

namespace nn {

class EmbeddingBackend;

/** How the looked-up vectors of one example are combined. */
enum class Pooling { Sum, Mean };

/**
 * Sparse gradient of an embedding table: one dense d-vector per touched
 * row, rows deduplicated. Produced by EmbeddingBag::backward and consumed
 * by the sparse optimizers.
 */
struct SparseGrad
{
    std::vector<uint64_t> rows;  ///< Touched row ids, unique.
    tensor::Tensor values;       ///< [rows.size(), dim] gradients.
};

/**
 * CSR-style multi-hot batch for one sparse feature: example b owns
 * indices[offsets[b] .. offsets[b+1]). Raw (pre-hash) IDs are allowed;
 * the table reduces them modulo its hash size.
 */
struct SparseBatch
{
    std::vector<uint64_t> indices;
    std::vector<std::size_t> offsets;  ///< Size batch+1; offsets[0] == 0.

    /** Number of examples. */
    std::size_t batchSize() const
    {
        return offsets.empty() ? 0 : offsets.size() - 1;
    }

    /** Total lookups across the batch. */
    std::size_t totalLookups() const { return indices.size(); }
};

/**
 * Open-addressed row id -> gradient slot map for EmbeddingBag's
 * backward pass. Each entry packs key, slot and epoch stamp into one
 * 16-byte aligned record, so a probe touches a single cache line;
 * prefetch() pulls a key's home entry ahead of its insert(). Power-of-
 * two capacity, linear probing, load factor <= 0.5; stamping entries
 * with the batch's epoch makes clearing O(1) instead of O(capacity),
 * and since capacity only grows, steady-state batches never touch the
 * allocator. Defined in the header so the backward kernel
 * (nn/sparse_kernels.h) inlines every probe.
 */
class FlatSlotMap
{
  public:
    /** Start a batch that will touch <= @p n distinct keys. */
    void beginBatch(std::size_t n);

    /** Prefetch @p key's home entry for a later insert(). */
    void prefetch(uint64_t key) const
    {
        __builtin_prefetch(&entries_[home(key)], 1, 3);
    }

    /**
     * Find-or-insert @p key. Returns its slot and whether the key was
     * new this batch (the caller then assigns the slot).
     */
    std::pair<uint32_t&, bool> insert(uint64_t key)
    {
        std::size_t i = home(key);
        while (true) {
            Entry& e = entries_[i];
            if (e.stamp != epoch_) {
                e.stamp = epoch_;
                e.key = key;
                return {e.slot, true};
            }
            if (e.key == key)
                return {e.slot, false};
            i = (i + 1) & mask_;
        }
    }

  private:
    struct alignas(16) Entry
    {
        uint64_t key = 0;
        uint32_t slot = 0;
        uint32_t stamp = 0;
    };

    /** splitmix64 finalizer: avalanches row ids onto the entries. */
    std::size_t home(uint64_t x) const
    {
        x += 0x9e3779b97f4a7c15ULL;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return static_cast<std::size_t>(x ^ (x >> 31)) & mask_;
    }

    std::vector<Entry> entries_;
    uint32_t epoch_ = 0;
    std::size_t mask_ = 0;
};

/**
 * Embedding lookup table of @p hashSize rows by @p dim columns with
 * sum or mean pooling per example.
 *
 * forward() parallelizes over batch examples on the global thread
 * pool; each output row is owned by one chunk, so it is bit-identical
 * at any RECSIM_THREADS. backward() is one serial pass over the
 * lookups in batch order with no pool dispatch of its own: tables are
 * independent, so the grouped lookup node (model::Dlrm) runs one
 * table's backward per pool task instead of sharding inside a table.
 * Every gradient element is "0, then + scale * dy once per lookup in
 * batch order" and rows come out in first-touch order, so the result
 * does not depend on the thread count either. backward()'s scratch
 * (reduced ids and the FlatSlotMap) belongs to the calling thread, not
 * the table: the tables a grouped backward runs on one thread share
 * one cache-warm map, and concurrent accumulateGrad() calls into
 * distinct SparseGrads are safe.
 */
class EmbeddingBag
{
  public:
    /**
     * @param hash_size Number of rows (the paper's per-feature m_i).
     * @param dim       Embedding dimension d (fixed across features).
     * @param rng       Initializer stream; rows ~ U(-1/sqrt(d), 1/sqrt(d)).
     * @param pooling   Sum or mean pooling of the looked-up vectors.
     */
    EmbeddingBag(uint64_t hash_size, std::size_t dim, util::Rng& rng,
                 Pooling pooling = Pooling::Sum);

    /**
     * Pooled lookup: out [B, dim] where row b aggregates the embeddings
     * of batch.indices in example b's range. Examples with no indices
     * produce a zero row. Ends the batch on the backend
     * (endForwardBatch) after the parallel gather completes.
     */
    void forward(const SparseBatch& batch, tensor::Tensor& out) const;

    /**
     * The body of one forward() chunk: pool examples [e0, e1) into
     * @p out, which must already be sized [B, dim] and zeroed. The
     * grouped-lookup path (model::Dlrm::forwardEmbeddingGroup) runs one
     * pool task per table over all of its examples; a pooled row does
     * not depend on the chunking, so that is bit-identical to
     * forward(). Callers that bypass forward() must call
     * endForwardBatch() once per batch after every chunk has completed.
     */
    void forwardRange(const SparseBatch& batch, tensor::Tensor& out,
                      std::size_t e0, std::size_t e1) const;

    /**
     * Close one forward batch on the backend: hot-set maintenance and
     * hit-rate export. forward() calls this itself; only direct
     * forwardRange() drivers (the grouped-lookup path) need it.
     */
    void endForwardBatch(const SparseBatch& batch) const;

    /**
     * Accumulate the sparse gradient of the last forward:
     * accumulateGrad() then endBackwardBatch().
     * @param batch Same batch as the matching forward().
     * @param dy    Gradient wrt the pooled output, [B, dim].
     * @param grad  Output: deduplicated per-row gradients, rows in
     *              first-touch order, values exactly [rows, dim].
     */
    void backward(const SparseBatch& batch, const tensor::Tensor& dy,
                  SparseGrad& grad) const;

    /**
     * The body of backward() without the backend accounting: one
     * serial pass that reduces the ids, deduplicates them through a
     * FlatSlotMap and accumulates each lookup's scaled dy into its
     * row (kernels::accumulatePooledGrad). Dispatches no pool work, so
     * the grouped backward (model::Dlrm::backwardEmbeddingGroup) runs
     * distinct tables' passes as concurrent pool tasks. Callers that
     * bypass backward() must call endBackwardBatch() afterwards.
     */
    void accumulateGrad(const SparseBatch& batch, const tensor::Tensor& dy,
                        SparseGrad& grad) const;

    /** Charge @p grad on the backend (noteBackward); serial. */
    void endBackwardBatch(const SparseGrad& grad) const;

    /** Sparse SGD row update via the backend: row -= lr * g. */
    void applySgd(const SparseGrad& grad, float lr);

    /**
     * Row-wise Adagrad update via the backend. @p acc is the
     * optimizer-owned per-row accumulator (hashSize() entries).
     */
    void applyAdagrad(const SparseGrad& grad, std::vector<float>& acc,
                      float lr, float eps);

    /**
     * Install a storage backend (nn/embedding_backend.h). The default
     * is a per-instance DramBackend; CachedBackend adds a hot tier.
     * Results must stay bitwise-identical across backends — only the
     * accounting differs.
     */
    void setBackend(std::shared_ptr<EmbeddingBackend> backend);

    /** The installed backend (never null). */
    EmbeddingBackend& backend() const { return *backend_; }

    /** The installed backend, shared (never null). */
    const std::shared_ptr<EmbeddingBackend>& backendPtr() const
    {
        return backend_;
    }

    uint64_t hashSize() const { return hash_size_; }
    std::size_t dim() const { return dim_; }
    Pooling pooling() const { return pooling_; }

    /** Parameter bytes (FP32). */
    std::size_t paramBytes() const
    {
        return hash_size_ * dim_ * sizeof(float);
    }

    tensor::Tensor table;  ///< [hash_size, dim]

  private:
    uint64_t hash_size_;
    std::size_t dim_;
    Pooling pooling_;
    std::shared_ptr<EmbeddingBackend> backend_;
};

} // namespace nn
} // namespace recsim
