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

namespace {

/**
 * Examples per forward chunk: target enough pooled accumulation work
 * (~64K scalar adds) that chunk dispatch never dominates. The gather
 * loop is memory-bound, so chunks must be much coarser than for
 * arithmetic kernels — a 16K-add grain left typical DLRM batches split
 * into dozens of tiny jobs and made the parallel path slower than
 * serial. Depends only on the batch shape, never on the thread count.
 */
std::size_t
forwardChunkGrain(const SparseBatch& batch, std::size_t dim)
{
    const std::size_t b = std::max<std::size_t>(batch.batchSize(), 1);
    const std::size_t avg_lookups =
        std::max<std::size_t>(batch.indices.size() / b, 1);
    const std::size_t work_per_example = avg_lookups * dim;
    return std::max<std::size_t>(
        1, (std::size_t(1) << 16) /
               std::max<std::size_t>(work_per_example, 1));
}

/**
 * backward()'s reusable workspace, one per thread: a pass never
 * dispatches pool work, so it cannot be interleaved with another pass
 * on the same thread. Sharing it across tables keeps the slot map
 * (32 bytes per lookup: 256 KB for a 5k-lookup batch) in cache from
 * one table to the next, where one map per table would be evicted
 * between steps. Capacity only grows, so steady-state batches
 * allocate nothing.
 */
struct BackwardScratch
{
    /** Each lookup's id reduced modulo the hash size. */
    std::vector<uint64_t> keys;
    /** Reduced id -> slot in the gradient block. */
    FlatSlotMap slot_of;
};

thread_local BackwardScratch tl_backward_scratch;

} // namespace

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

void
FlatSlotMap::beginBatch(std::size_t n)
{
    RECSIM_ASSERT(n <= UINT32_MAX, "{} lookups overflow 32-bit slots", n);
    // Load factor <= 0.5: capacity is the next power of two >= 2n.
    std::size_t want = 16;
    while (want < n * 2)
        want <<= 1;
    if (entries_.size() < want) {
        entries_.assign(want, Entry{});
        mask_ = want - 1;
        epoch_ = 0;
    }
    if (++epoch_ == 0) {
        // Epoch wrapped: stamps from 2^32 batches ago could collide,
        // so wipe them once and restart at 1.
        for (Entry& e : entries_)
            e.stamp = 0;
        epoch_ = 1;
    }
}

void
EmbeddingBag::backward(const SparseBatch& batch, const tensor::Tensor& dy,
                       SparseGrad& grad) const
{
    RECSIM_TRACE_SPAN("nn.emb.bwd");
    accumulateGrad(batch, dy, grad);
    endBackwardBatch(grad);
}

void
EmbeddingBag::accumulateGrad(const SparseBatch& batch,
                             const tensor::Tensor& dy,
                             SparseGrad& grad) const
{
    const std::size_t b = batch.batchSize();
    RECSIM_ASSERT(dy.rows() == b && dy.cols() == dim_,
                  "embedding backward dy {}", dy.shapeString());
    RECSIM_ASSERT(batch.offsets.empty() ||
                      (batch.offsets.front() == 0 &&
                       batch.offsets.back() <= batch.indices.size()),
                  "corrupt SparseBatch offsets");
    // Only lookups inside an example are pooled, so only they have a
    // gradient.
    const std::size_t n = b == 0 ? 0 : batch.offsets[b];
    BackwardScratch& ws = tl_backward_scratch;
    ws.keys.resize(n);
    for (std::size_t k = 0; k < n; ++k)
        ws.keys[k] = batch.indices[k] % hash_size_;
    ws.slot_of.beginBatch(n);
    grad.rows.clear();
    grad.rows.reserve(n);
    // Room for every lookup to touch a new row. The kernel writes each
    // slot row before reading it, so the block is never zero-filled
    // once it has reached its largest size, and it is cut to the rows
    // actually touched.
    grad.values.resizeUninitialized(n, dim_);
    kernels::accumulatePooledGrad(batch, ws.keys.data(), dy.data(), dim_,
                                  pooling_, ws.slot_of, grad.rows,
                                  grad.values.data());
    grad.values.resizeUninitialized(grad.rows.size(), dim_);
}

void
EmbeddingBag::endBackwardBatch(const SparseGrad& grad) const
{
    backend_->noteBackward(grad, dim_);
}

} // namespace nn
} // namespace recsim
