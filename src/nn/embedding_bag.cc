#include "nn/embedding_bag.h"

#include <algorithm>
#include <cmath>

#include "nn/embedding_backend.h"
#include "nn/sparse_kernels.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace recsim {
namespace nn {

/**
 * Examples per forward chunk: target enough pooled accumulation work
 * (~64K scalar adds) that chunk dispatch never dominates. The gather
 * loop is memory-bound, so chunks must be much coarser than for
 * arithmetic kernels — a 16K-add grain left typical DLRM batches split
 * into dozens of tiny jobs and made the parallel path slower than
 * serial. Depends only on the batch shape, never on the thread count.
 */
std::size_t
EmbeddingBag::forwardChunkGrain(const SparseBatch& batch, std::size_t dim)
{
    const std::size_t b = std::max<std::size_t>(batch.batchSize(), 1);
    const std::size_t avg_lookups =
        std::max<std::size_t>(batch.indices.size() / b, 1);
    const std::size_t work_per_example = avg_lookups * dim;
    return std::max<std::size_t>(
        1, (std::size_t(1) << 16) /
               std::max<std::size_t>(work_per_example, 1));
}

EmbeddingBag::EmbeddingBag(uint64_t hash_size, std::size_t dim,
                           util::Rng& rng, Pooling pooling)
    : table(static_cast<std::size_t>(hash_size), dim),
      hash_size_(hash_size), dim_(dim), pooling_(pooling),
      backend_(makeDramBackend())
{
    RECSIM_ASSERT(hash_size > 0 && dim > 0,
                  "degenerate embedding table [{} x {}]", hash_size, dim);
    const float bound = 1.0f / std::sqrt(static_cast<float>(dim));
    table.fillUniform(rng, -bound, bound);
}

void
EmbeddingBag::setBackend(std::shared_ptr<EmbeddingBackend> backend)
{
    RECSIM_ASSERT(backend != nullptr, "null embedding backend");
    backend_ = std::move(backend);
}

void
EmbeddingBag::forward(const SparseBatch& batch, tensor::Tensor& out) const
{
    RECSIM_TRACE_SPAN("nn.emb.fwd");
    const std::size_t b = batch.batchSize();
    if (out.rank() != 2 || out.rows() != b || out.cols() != dim_)
        out.resize(b, dim_);
    else
        out.zero();
    RECSIM_ASSERT(batch.offsets.empty() ||
                      (batch.offsets.front() == 0 &&
                       batch.offsets.back() <= batch.indices.size()),
                  "corrupt SparseBatch offsets");
    // Each example's output row is owned by exactly one chunk, so the
    // result is bit-identical at any thread count.
    util::globalThreadPool().parallelFor(
        0, b, forwardChunkGrain(batch, dim_),
        [this, &batch, &out](std::size_t e0, std::size_t e1) {
            forwardRange(batch, out, e0, e1);
        });
    backend_->endForwardBatch(batch, hash_size_, dim_);
}

void
EmbeddingBag::forwardRange(const SparseBatch& batch, tensor::Tensor& out,
                           std::size_t e0, std::size_t e1) const
{
    backend_->forwardRange(table, hash_size_, dim_, pooling_, batch, out,
                           e0, e1);
}

void
EmbeddingBag::endForwardBatch(const SparseBatch& batch) const
{
    backend_->endForwardBatch(batch, hash_size_, dim_);
}

void
EmbeddingBag::applySgd(const SparseGrad& grad, float lr)
{
    backend_->applySgd(table, dim_, grad, lr);
}

void
EmbeddingBag::applyAdagrad(const SparseGrad& grad,
                           std::vector<float>& acc, float lr, float eps)
{
    RECSIM_ASSERT(acc.size() == hash_size_,
                  "Adagrad accumulator size {} vs hash size {}",
                  acc.size(), hash_size_);
    backend_->applyAdagrad(table, dim_, grad, acc, lr, eps);
}

namespace {

/** splitmix64 finalizer: avalanches row ids onto the table slots. */
inline uint64_t
mixKey(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace

void
EmbeddingBag::FlatSlotMap::beginBatch(std::size_t n)
{
    // Load factor <= 0.5: capacity is the next power of two >= 2n.
    std::size_t want = 16;
    while (want < n * 2)
        want <<= 1;
    if (keys.size() < want) {
        keys.assign(want, 0);
        slots.assign(want, 0);
        stamps.assign(want, 0);
        mask = want - 1;
        epoch = 0;
    }
    if (++epoch == 0) {
        // Epoch wrapped: stamps from 2^32 batches ago could collide,
        // so wipe them once and restart at 1.
        std::fill(stamps.begin(), stamps.end(), 0u);
        epoch = 1;
    }
}

std::pair<std::size_t&, bool>
EmbeddingBag::FlatSlotMap::insert(uint64_t key)
{
    std::size_t i = static_cast<std::size_t>(mixKey(key)) & mask;
    while (true) {
        if (stamps[i] != epoch) {
            stamps[i] = epoch;
            keys[i] = key;
            return {slots[i], true};
        }
        if (keys[i] == key)
            return {slots[i], false};
        i = (i + 1) & mask;
    }
}

void
EmbeddingBag::backward(const SparseBatch& batch, const tensor::Tensor& dy,
                       SparseGrad& grad) const
{
    RECSIM_TRACE_SPAN("nn.emb.bwd");
    const std::size_t b = batch.batchSize();
    RECSIM_ASSERT(dy.rows() == b && dy.cols() == dim_,
                  "embedding backward dy {}", dy.shapeString());

    // Phase 1 (serial): assign each touched row a slot in first-touch
    // order — the same slot order the old single-pass kernel produced —
    // and remember every lookup's slot so phase 2 never hashes. The
    // flat map is sized once per batch shape; steady-state batches
    // allocate nothing.
    BackwardScratch& ws = scratch_;
    ws.slot_of.beginBatch(batch.indices.size());
    ws.rows.clear();
    ws.slot_per_k.resize(batch.indices.size());
    for (std::size_t k = 0; k < batch.indices.size(); ++k) {
        const uint64_t row_id = batch.indices[k] % hash_size_;
        auto [slot, inserted] = ws.slot_of.insert(row_id);
        if (inserted) {
            slot = ws.rows.size();
            ws.rows.push_back(row_id);
        }
        ws.slot_per_k[k] = slot;
    }

    const std::size_t nrows = ws.rows.size();
    grad.rows.assign(ws.rows.begin(), ws.rows.end());
    grad.values.resize(nrows, dim_);
    if (nrows == 0)
        return;

    // Phase 2 (parallel): shard the gradient block by slot ranges so
    // accumulation needs no atomics. Each chunk rescans the (cheap)
    // per-lookup slot array and accumulates only its own slots, in
    // batch order — so every gradient row sees the serial accumulation
    // order no matter how many chunks or threads run. A handful of
    // shards bounds the rescan overhead.
    const std::size_t nshards =
        std::min<std::size_t>(util::globalThreadPool().numThreads(),
                              nrows);
    const std::size_t grain = (nrows + nshards - 1) / nshards;
    util::globalThreadPool().parallelFor(
        0, nrows, grain,
        [this, &batch, &ws, &grad, &dy](std::size_t lo, std::size_t hi) {
            kernels::accumulatePooledGrad(batch, ws.slot_per_k.data(),
                                          dy.data(), dim_, pooling_,
                                          grad.values.data(), lo, hi);
        });
    backend_->noteBackward(grad, dim_);
}

} // namespace nn
} // namespace recsim
