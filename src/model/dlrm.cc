#include "model/dlrm.h"

#include <algorithm>

#include "nn/embedding_backend.h"
#include "nn/loss.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_utils.h"
#include "util/thread_pool.h"

namespace recsim {
namespace model {

Dlrm::Dlrm(const DlrmConfig& config, uint64_t seed, double max_bytes)
    : config_(config), graph_(graph::buildModelStepGraph(config))
{
    const double emb_bytes = config_.embeddingBytes();
    if (emb_bytes > max_bytes) {
        util::fatal("config '{}' needs {} of embeddings (> {} limit); "
                    "use the analytical cost models for shapes this "
                    "large", config_.name,
                    util::bytesToString(emb_bytes),
                    util::bytesToString(max_bytes));
    }
    util::Rng rng(seed);
    bottom_ = std::make_unique<nn::Mlp>(config_.num_dense,
                                        config_.bottomDims(), rng);
    top_ = std::make_unique<nn::Mlp>(config_.interactionWidth(),
                                     config_.topDims(), rng);
    tables_.reserve(config_.numSparse());
    projections_.reserve(config_.numSparse());
    for (const auto& spec : config_.sparse) {
        util::Rng table_rng = rng.fork(spec.hash_size);
        const std::size_t dim = spec.effectiveDim(config_.emb_dim);
        tables_.emplace_back(spec.hash_size, dim, table_rng,
                             nn::Pooling::Sum);
        // Narrow tables project up to the shared width (mixed dims).
        projections_.push_back(
            dim == config_.emb_dim
                ? nullptr
                : std::make_unique<nn::Linear>(dim, config_.emb_dim,
                                               rng));
    }
    pooled_raw_.resize(config_.numSparse());
    pooled_.resize(config_.numSparse());
    d_pooled_raw_.resize(config_.numSparse());
    sparse_grads_.resize(config_.numSparse());
}

void
Dlrm::forwardBottomLayer(std::size_t i, const data::MiniBatch& batch,
                         bool fused)
{
    bottom_->forwardLayer(i, batch.dense, fused);
    if (i + 1 == bottom_->numLayers())
        bottom_out_ = bottom_->output();
}

void
Dlrm::forwardEmbedding(std::size_t f, const data::MiniBatch& batch)
{
    // Narrow tables pool into the raw buffer their projection reads.
    if (projections_[f])
        tables_[f].forward(batch.sparse[f], pooled_raw_[f]);
    else
        tables_[f].forward(batch.sparse[f], pooled_[f]);
}

void
Dlrm::forwardEmbeddingGroup(const std::vector<int>& group,
                            const data::MiniBatch& batch)
{
    RECSIM_TRACE_SPAN("nn.emb.fwd");
    // One task per member table, each pooling all of its examples: a
    // pooled row does not depend on how forward() would have chunked
    // the examples, so this is bit-identical to forwardEmbedding(f).
    util::globalThreadPool().parallelFor(
        0, group.size(), 1,
        [this, &group, &batch](std::size_t i0, std::size_t i1) {
            for (std::size_t i = i0; i < i1; ++i) {
                const auto f = static_cast<std::size_t>(group[i]);
                const nn::SparseBatch& sb = batch.sparse[f];
                tensor::Tensor& out =
                    projections_[f] ? pooled_raw_[f] : pooled_[f];
                const std::size_t b = sb.batchSize();
                const std::size_t dim = tables_[f].dim();
                if (out.rank() != 2 || out.rows() != b ||
                    out.cols() != dim)
                    out.resize(b, dim);
                else
                    out.zero();
                RECSIM_ASSERT(sb.offsets.empty() ||
                                  (sb.offsets.front() == 0 &&
                                   sb.offsets.back() <= sb.indices.size()),
                              "corrupt SparseBatch offsets");
                if (b > 0)
                    tables_[f].forwardRange(sb, out, 0, b);
            }
        });
    // Close the batch on every member table's backend, serially —
    // exactly what each table's own forward() would have done.
    for (int fi : group) {
        const auto f = static_cast<std::size_t>(fi);
        tables_[f].endForwardBatch(batch.sparse[f]);
    }
}

void
Dlrm::setEmbeddingBackend(std::size_t f,
                          std::shared_ptr<nn::EmbeddingBackend> backend)
{
    RECSIM_ASSERT(f < tables_.size(), "no embedding table {}", f);
    // Tables run their lookups and updates concurrently (grouped nodes,
    // executor waves), and a backend's counters are plain fields: one
    // instance may serve only one table.
    for (std::size_t g = 0; g < tables_.size(); ++g)
        RECSIM_ASSERT(g == f || tables_[g].backendPtr() != backend,
                      "embedding backend of table {} installed on table "
                      "{}; each table needs its own instance", g, f);
    tables_[f].setBackend(std::move(backend));
}

void
Dlrm::installCachedEmbeddingBackends(double hot_tier_bytes,
                                     std::size_t refresh_every)
{
    RECSIM_ASSERT(hot_tier_bytes >= 0.0, "negative hot-tier budget");
    const std::size_t n = tables_.size();
    // Mirror placement's hot-tier allocator (allocateHotTier in
    // placement.cc) byte for byte so the rows installed here are the
    // rows the analytic hit fraction
    // (cost::IterationModel::hotTierHitFraction) was computed for:
    // same overhead-inflated table bytes, same densest-first
    // whole-table packing, same traffic-share split of the leftover.
    constexpr double kOverhead = 1.25;  // PlacementOptions default.
    std::vector<double> bytes(n), access(n);
    for (std::size_t f = 0; f < n; ++f) {
        const auto& spec = config_.sparse[f];
        const double dim = static_cast<double>(tables_[f].dim());
        bytes[f] = static_cast<double>(spec.hash_size) * dim *
            sizeof(float) * kOverhead;
        access[f] = spec.effectiveMeanLength() * dim * sizeof(float);
    }
    std::vector<std::size_t> order(n);
    for (std::size_t f = 0; f < n; ++f)
        order[f] = f;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return access[a] / bytes[a] >
                             access[b] / bytes[b];
                     });

    std::vector<std::size_t> hot_rows(n, 0);
    double remaining = hot_tier_bytes;
    std::vector<std::size_t> partial;
    double partial_access = 0.0;
    for (std::size_t f : order) {
        if (bytes[f] <= remaining) {
            hot_rows[f] = config_.sparse[f].hash_size;
            remaining -= bytes[f];
        } else {
            partial.push_back(f);
            partial_access += access[f];
        }
    }
    if (remaining > 0.0 && partial_access > 0.0) {
        for (std::size_t f : partial) {
            const double share = access[f] / partial_access;
            const double hot = std::min(remaining * share, bytes[f]);
            hot_rows[f] = static_cast<std::size_t>(
                static_cast<double>(config_.sparse[f].hash_size) *
                hot / bytes[f]);
        }
    }

    for (std::size_t f = 0; f < n; ++f) {
        nn::CachedBackendConfig cfg;
        cfg.hot_rows = hot_rows[f];
        cfg.refresh_every = refresh_every;
        cfg.label = "emb.t" + std::to_string(f);
        tables_[f].setBackend(nn::makeCachedBackend(std::move(cfg)));
    }
}

void
Dlrm::installDramEmbeddingBackends()
{
    for (auto& table : tables_)
        table.setBackend(nn::makeDramBackend());
}

void
Dlrm::forwardProjection(std::size_t f, bool fused)
{
    if (fused)
        projections_[f]->forwardFused(pooled_raw_[f], pooled_[f], false);
    else
        projections_[f]->forward(pooled_raw_[f], pooled_[f]);
}

void
Dlrm::forwardInteraction()
{
    if (config_.interaction == nn::InteractionKind::DotProduct)
        dot_.forward(bottom_out_, pooled_, interact_out_);
    else
        cat_.forward(bottom_out_, pooled_, interact_out_);
}

void
Dlrm::forwardTopLayer(std::size_t i, bool fused)
{
    top_->forwardLayer(i, interact_out_, fused);
    if (i + 1 == top_->numLayers())
        logits_ = top_->output();
}

double
Dlrm::lossBackward(const data::MiniBatch& batch)
{
    return nn::bceWithLogits(logits_, batch.labels, d_logits_);
}

void
Dlrm::backwardTopLayer(std::size_t i, bool fused, bool flatten)
{
    if (flatten && i == 0) {
        // Interaction-flatten fusion: run layer 0's backward by hand —
        // parameter grads as usual, but the input-grad GEMM writes the
        // interaction backward's destinations directly (segmented over
        // the product's columns) instead of the d_interact_ flatten
        // buffer. Each segment element carries the exact fma chain of
        // the unsegmented GEMM, and the dot pass-through's zero-bias
        // segment reproduces its zero + += bits, so the fused walk
        // stays bitwise equal (d_interact_ is simply never written).
        const tensor::Tensor& grad = top_->gradInto(0, d_logits_);
        nn::Linear& l0 = top_->layers()[0];
        if (fused)
            l0.backwardNoInputGradFused(interact_out_, grad);
        else
            l0.backwardNoInputGrad(interact_out_, grad);
        std::vector<tensor::GemmOutSegment> segs;
        if (config_.interaction == nn::InteractionKind::DotProduct) {
            const std::size_t f = pooled_.size() + 1;
            const std::size_t pairs = f * (f - 1) / 2;
            segs.push_back({&d_bottom_out_, bottom_out_.cols(),
                            /*zero_bias=*/true});
            if (pairs > 0)
                segs.push_back({&d_interact_pairs_, pairs, false});
        } else {
            // Ordinarily CatInteraction::backward sizes this vector.
            d_pooled_.resize(pooled_.size());
            segs.push_back({&d_bottom_out_, bottom_out_.cols(), false});
            for (std::size_t s = 0; s < pooled_.size(); ++s)
                segs.push_back({&d_pooled_[s], pooled_[s].cols(),
                                false});
        }
        tensor::matmulTransBSegmented(grad, l0.weight, segs);
        return;
    }
    if (fused)
        top_->backwardLayerFused(i, interact_out_, d_logits_,
                                 d_interact_);
    else
        top_->backwardLayer(i, interact_out_, d_logits_, d_interact_);
}

void
Dlrm::backwardInteraction(bool flatten)
{
    if (flatten) {
        // The flatten-fused top-MLP layer 0 already wrote d_bottom_out_
        // (and, for concat, every d_pooled_) — only the dot pairwise
        // scatter remains.
        if (config_.interaction == nn::InteractionKind::DotProduct)
            dot_.backwardFused(bottom_out_, pooled_, d_interact_pairs_,
                               d_bottom_out_, d_pooled_);
        return;
    }
    if (config_.interaction == nn::InteractionKind::DotProduct)
        dot_.backward(bottom_out_, pooled_, d_interact_, d_bottom_out_,
                      d_pooled_);
    else
        cat_.backward(bottom_out_, pooled_, d_interact_, d_bottom_out_,
                      d_pooled_);
}

void
Dlrm::backwardBottomLayer(std::size_t i, const data::MiniBatch& batch,
                          bool fused)
{
    if (fused)
        bottom_->backwardLayerFused(i, batch.dense, d_bottom_out_,
                                    d_dense_in_);
    else
        bottom_->backwardLayer(i, batch.dense, d_bottom_out_,
                               d_dense_in_);
}

void
Dlrm::backwardProjection(std::size_t f, bool fused)
{
    if (fused)
        projections_[f]->backwardFused(pooled_raw_[f], d_pooled_[f],
                                       d_pooled_raw_[f], nullptr);
    else
        projections_[f]->backward(pooled_raw_[f], d_pooled_[f],
                                  d_pooled_raw_[f]);
}

void
Dlrm::backwardEmbedding(std::size_t f, const data::MiniBatch& batch)
{
    const tensor::Tensor& grad =
        projections_[f] ? d_pooled_raw_[f] : d_pooled_[f];
    tables_[f].backward(batch.sparse[f], grad, sparse_grads_[f]);
}

void
Dlrm::backwardEmbeddingGroup(const std::vector<int>& group,
                             const data::MiniBatch& batch)
{
    RECSIM_TRACE_SPAN("nn.emb.bwd");
    // One task per member table: each table's pass is serial and owns
    // its own scratch and SparseGrad, so the tasks share nothing.
    util::globalThreadPool().parallelFor(
        0, group.size(), 1,
        [this, &group, &batch](std::size_t i0, std::size_t i1) {
            for (std::size_t i = i0; i < i1; ++i) {
                const auto f = static_cast<std::size_t>(group[i]);
                const tensor::Tensor& grad =
                    projections_[f] ? d_pooled_raw_[f] : d_pooled_[f];
                tables_[f].accumulateGrad(batch.sparse[f], grad,
                                          sparse_grads_[f]);
            }
        });
    for (int fi : group) {
        const auto f = static_cast<std::size_t>(fi);
        tables_[f].endBackwardBatch(sparse_grads_[f]);
    }
}

bool
Dlrm::fits(const graph::Node& node) const
{
    const auto layer = static_cast<std::size_t>(node.layer);
    const auto table = static_cast<std::size_t>(node.table);
    auto same_widths = [&node](const nn::Linear* linear) {
        return linear != nullptr &&
            linear->inFeatures() == node.in_width &&
            linear->outFeatures() == node.out_width;
    };
    switch (node.kind) {
      case graph::NodeKind::Gemm: {
        if (node.role == graph::GemmRole::Projection)
            return table < tables_.size() &&
                same_widths(projections_[table].get());
        const nn::Mlp& mlp =
            node.role == graph::GemmRole::BottomMlp ? *bottom_ : *top_;
        return layer < mlp.numLayers() &&
            same_widths(&mlp.layers()[layer]);
      }
      case graph::NodeKind::EmbeddingLookup: {
        if (node.fused_tables.empty())
            return table < tables_.size() &&
                tables_[table].dim() == node.out_width;
        // Members run as concurrent tasks: each table at most once.
        const std::vector<int>& g = node.fused_tables;
        for (auto it = g.begin(); it != g.end(); ++it)
            if (static_cast<std::size_t>(*it) >= tables_.size() ||
                std::find(g.begin(), it, *it) != it)
                return false;
        return true;
      }
      case graph::NodeKind::Interaction:
        return node.in_width == config_.emb_dim &&
            node.out_width == config_.interactionWidth();
      default:
        return true;
    }
}

void
Dlrm::runNode(const graph::Node& node, const data::MiniBatch& batch,
              bool forward)
{
    RECSIM_ASSERT(batch.sparse.size() == tables_.size(),
                  "batch has {} sparse features, model expects {}",
                  batch.sparse.size(), tables_.size());
    RECSIM_ASSERT(fits(node), "StepGraph node {} does not match model '{}'",
                  node.id, config_.name);
    const auto layer = static_cast<std::size_t>(node.layer);
    const auto table = static_cast<std::size_t>(node.table);
    switch (node.kind) {
      case graph::NodeKind::Gemm:
        if (node.role == graph::GemmRole::Projection) {
            if (forward)
                forwardProjection(table, node.fused_epilogue);
            else
                backwardProjection(table, node.fused_backward);
        } else if (node.role == graph::GemmRole::BottomMlp) {
            if (forward)
                forwardBottomLayer(layer, batch, node.fused_epilogue);
            else
                backwardBottomLayer(layer, batch, node.fused_backward);
        } else {
            if (forward)
                forwardTopLayer(layer, node.fused_epilogue);
            else
                backwardTopLayer(layer, node.fused_backward,
                                 node.fused_flatten);
        }
        break;
      case graph::NodeKind::EmbeddingLookup:
        if (!node.fused_tables.empty()) {
            if (forward)
                forwardEmbeddingGroup(node.fused_tables, batch);
            else
                backwardEmbeddingGroup(node.fused_tables, batch);
        } else {
            if (forward)
                forwardEmbedding(table, batch);
            else
                backwardEmbedding(table, batch);
        }
        break;
      case graph::NodeKind::Interaction:
        if (forward)
            forwardInteraction();
        else
            backwardInteraction(node.fused_flatten);
        break;
      default:
        // Loss runs between the halves; OptimizerUpdate is the
        // caller's step(); Comm nodes have no local work.
        break;
    }
}

void
Dlrm::forward(const data::MiniBatch& batch, tensor::Tensor& logits)
{
    RECSIM_TRACE_SPAN("model.fwd");
    for (const auto& node : graph_.nodes)
        runNode(node, batch, /*forward=*/true);
    logits = logits_;
}

double
Dlrm::forwardBackward(const data::MiniBatch& batch)
{
    {
        RECSIM_TRACE_SPAN("model.fwd");
        for (const auto& node : graph_.nodes)
            runNode(node, batch, /*forward=*/true);
    }
    const double loss = lossBackward(batch);
    RECSIM_TRACE_SPAN("model.bwd");
    for (auto it = graph_.nodes.rbegin(); it != graph_.nodes.rend(); ++it)
        runNode(*it, batch, /*forward=*/false);
    return loss;
}

void
Dlrm::zeroGrad()
{
    bottom_->zeroGrad();
    top_->zeroGrad();
    for (auto& proj : projections_) {
        if (proj)
            proj->zeroGrad();
    }
    // Clearing rows (the size the optimizers iterate) is enough;
    // keeping the values buffer lets the next backward reuse it.
    for (auto& g : sparse_grads_)
        g.rows.clear();
}

template <typename Opt>
void
Dlrm::applyStep(Opt& opt)
{
    opt.step(*bottom_);
    opt.step(*top_);
    for (auto& proj : projections_) {
        if (proj)
            opt.step(*proj);
    }
    for (std::size_t f = 0; f < tables_.size(); ++f)
        opt.stepSparse(tables_[f], sparse_grads_[f]);
    zeroGrad();
}
template void Dlrm::applyStep(const nn::Sgd&);
template void Dlrm::applyStep(nn::Adagrad&);

double
Dlrm::evalLoss(const data::MiniBatch& batch)
{
    tensor::Tensor logits;
    forward(batch, logits);
    return nn::bceWithLogitsLoss(logits, batch.labels);
}

double
Dlrm::evalNormalizedEntropy(const data::MiniBatch& batch)
{
    tensor::Tensor logits;
    forward(batch, logits);
    return nn::normalizedEntropy(logits, batch.labels);
}

std::vector<tensor::Tensor*>
Dlrm::denseParams()
{
    std::vector<tensor::Tensor*> params;
    for (auto* mlp : {bottom_.get(), top_.get()}) {
        for (auto& layer : mlp->layers()) {
            params.push_back(&layer.weight);
            params.push_back(&layer.bias);
        }
    }
    for (auto& proj : projections_) {
        if (proj) {
            params.push_back(&proj->weight);
            params.push_back(&proj->bias);
        }
    }
    return params;
}

std::size_t
Dlrm::numDenseParams() const
{
    std::size_t total = bottom_->numParams() + top_->numParams();
    for (const auto& proj : projections_) {
        if (proj)
            total += proj->numParams();
    }
    return total;
}

} // namespace model
} // namespace recsim
