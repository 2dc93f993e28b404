/**
 * @file
 * Functional DLRM: the trainable model of Fig 3 — bottom MLP over dense
 * features, embedding tables over sparse features, feature interaction,
 * top MLP to a click logit. Used by the accuracy experiments (Fig 15)
 * and the functional integration tests; the *performance* of production
 * shapes is modeled analytically (src/cost) because terabyte tables
 * cannot be instantiated.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "data/dataset.h"
#include "graph/step_graph.h"
#include "model/config.h"
#include "nn/embedding_bag.h"
#include "nn/interaction.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "tensor/tensor.h"

namespace recsim {
namespace model {

/**
 * Trainable DLRM instance.
 *
 * One instance supports one in-flight forward/backward at a time; for
 * multi-threaded training each worker owns a replica (EASGD) or all
 * workers share one instance and race (Hogwild, by design).
 */
class Dlrm
{
  public:
    /**
     * Instantiate a config. fatal()s if the embedding tables exceed
     * @p max_bytes (default 4 GiB) — production shapes must go through
     * the analytical cost models instead.
     */
    explicit Dlrm(const DlrmConfig& config, uint64_t seed = 1,
                  double max_bytes = 4.0 * (1ULL << 30));

    /**
     * Forward pass only: runNode() over graph() in node order. Fills
     * logits [B, 1].
     */
    void forward(const data::MiniBatch& batch, tensor::Tensor& logits);

    /**
     * Forward + loss + full backward: runNode() over graph() in node
     * order, lossBackward(), then the nodes again in reverse. The
     * unfused serial reference every other walk is held bitwise equal
     * to. Dense grads accumulate in the MLP layers; sparse grads are
     * stored per table (see sparseGrads()).
     * @return Mean BCE loss of the batch.
     */
    double forwardBackward(const data::MiniBatch& batch);

    // --- Graph-walk execution -------------------------------------
    // Every walk of a step — forward()/forwardBackward() over graph(),
    // and train::GraphExecutor over any StepGraph — runs each node
    // through runNode(), the one place a graph::Node maps onto the
    // stepwise primitives below: bottom_mlp.l{i} -> the
    // forward/backwardBottomLayer pair, emb.t{f} -> *Embedding,
    // emb.grouped.g{k} -> *EmbeddingGroup, proj.t{f} -> *Projection,
    // and so on. Each primitive assumes the ones its node depends on
    // already ran. The MLP/projection primitives take @p fused from
    // the node's fused_epilogue flag (graph::fusePass): the bias
    // (+ ReLU) runs as the GEMM's epilogue. Bitwise identical either
    // way.

    /**
     * Run @p node's forward (or, with @p forward false, backward)
     * primitive on @p batch, dispatching on the node's fusion flags.
     * Loss, OptimizerUpdate and Comm nodes have no primitive here and
     * are skipped: the loss runs between the halves (lossBackward())
     * and the update is the caller's step(). Panics when the node
     * names a layer or table this model does not have, or disagrees
     * with it on widths, and when @p batch does not carry one sparse
     * feature per table — a graph or batch built for another config.
     */
    void runNode(const graph::Node& node, const data::MiniBatch& batch,
                 bool forward);

    /**
     * The unfused StepGraph of this model's config, built at
     * construction. forward()/forwardBackward() walk it in node order
     * (reversed for the backward half); the serving engine prunes it
     * to its forward subgraph, the trainer fuses a copy.
     */
    const graph::StepGraph& graph() const { return graph_; }

    void forwardBottomLayer(std::size_t i, const data::MiniBatch& batch,
                            bool fused = false);
    void forwardEmbedding(std::size_t f, const data::MiniBatch& batch);
    /**
     * Grouped lookup for a fused EmbeddingLookup node: ONE parallelFor
     * with one task per member table, each pooling all of its examples
     * (EmbeddingBag::forwardRange), instead of one dispatch per table.
     * A pooled row does not depend on the chunking and every output is
     * owned by one task, so the result is bit-identical to calling
     * forwardEmbedding(f) for each member in order, at any thread
     * count. The backends' endForwardBatch runs serially afterwards.
     */
    void forwardEmbeddingGroup(const std::vector<int>& group,
                               const data::MiniBatch& batch);
    void forwardProjection(std::size_t f, bool fused = false);
    void forwardInteraction();
    void forwardTopLayer(std::size_t i, bool fused = false);
    /** Loss + dLoss/dLogits; run between the two graph halves. */
    double lossBackward(const data::MiniBatch& batch);
    /**
     * The backward MLP/projection primitives take @p fused from the
     * node's fused_backward flag: the bias gradient rides the
     * weight-grad GEMM sweep and the dReLU mask is applied inside the
     * input-grad GEMM store (Linear::backwardFused). @p flatten (the
     * node's fused_flatten flag, top-MLP layer 0 + Interaction only)
     * additionally routes layer 0's input-grad GEMM straight into the
     * interaction backward's destinations
     * (tensor::matmulTransBSegmented), skipping the intermediate
     * flatten buffer; backwardInteraction(flatten) then consumes those
     * segment outputs. All paths are bitwise identical to the unfused
     * walk.
     */
    void backwardTopLayer(std::size_t i, bool fused = false,
                          bool flatten = false);
    void backwardInteraction(bool flatten = false);
    void backwardBottomLayer(std::size_t i, const data::MiniBatch& batch,
                             bool fused = false);
    void backwardProjection(std::size_t f, bool fused = false);
    void backwardEmbedding(std::size_t f, const data::MiniBatch& batch);
    /**
     * Backward of a fused EmbeddingLookup node: ONE parallelFor with
     * one task per member table, each running that table's serial
     * single-pass backward (EmbeddingBag::accumulateGrad), then the
     * backends' noteBackward serially — bit-identical to the unfused
     * walk at any thread count.
     */
    void backwardEmbeddingGroup(const std::vector<int>& group,
                                const data::MiniBatch& batch);

    /** True when table @p f projects up to the shared width. */
    bool hasProjection(std::size_t f) const
    {
        return projections_[f] != nullptr;
    }

    // --- Embedding storage backends -------------------------------
    // Tables default to per-instance DramBackends (the historical flat
    // table). Backends only change byte accounting, never results:
    // lookups stay bitwise-identical across backends.

    /**
     * Install @p backend on table @p f (nn/embedding_backend.h).
     * Panics if another table already uses the same instance: tables
     * run concurrently and a backend's counters are not synchronized.
     */
    void setEmbeddingBackend(
        std::size_t f, std::shared_ptr<nn::EmbeddingBackend> backend);

    /**
     * Install a CachedBackend on every table, splitting a hot-tier
     * budget of @p hot_tier_bytes across tables with the same
     * allocator placement::planPlacement uses (densest whole tables
     * first, leftover as per-table row caches by traffic share) — so
     * the rows installed here are exactly the rows
     * cost::IterationModel::hotTierHitFraction priced, and measured
     * hit rates validate the analytic prediction. Labels are
     * "emb.t{f}", matching the StepGraph node ids, so obs channels
     * line up with the per-node telemetry.
     */
    void installCachedEmbeddingBackends(double hot_tier_bytes,
                                        std::size_t refresh_every = 8);

    /** Reset every table to a fresh DramBackend. */
    void installDramEmbeddingBackends();

    /** Zero dense grads and drop stored sparse grads. */
    void zeroGrad();

    /** Apply accumulated grads with SGD and clear them. */
    void step(const nn::Sgd& opt) { applyStep(opt); }

    /** Apply accumulated grads with Adagrad and clear them. */
    void step(nn::Adagrad& opt) { applyStep(opt); }

    /** Mean BCE loss on a batch without touching grads. */
    double evalLoss(const data::MiniBatch& batch);

    /** Normalized entropy on a batch. */
    double evalNormalizedEntropy(const data::MiniBatch& batch);

    /**
     * Logits of the most recent forward pass ([B, 1]); valid after
     * forward(), forwardBackward() or a graph-walk forward. The
     * serving engine reads scores here after
     * GraphExecutor::runForward() without paying forward()'s copy.
     */
    const tensor::Tensor& logits() const { return logits_; }

    const DlrmConfig& config() const { return config_; }
    nn::Mlp& bottomMlp() { return *bottom_; }
    nn::Mlp& topMlp() { return *top_; }
    std::vector<nn::EmbeddingBag>& tables() { return tables_; }
    const std::vector<nn::SparseGrad>& sparseGrads() const
    {
        return sparse_grads_;
    }

    /**
     * All dense parameter tensors (MLP weights and biases), for EASGD
     * elastic averaging between replicas and the center model.
     */
    std::vector<tensor::Tensor*> denseParams();

    /** Total dense parameter count. */
    std::size_t numDenseParams() const;

  private:
    /** True when @p node names a layer or table of this model with
     *  matching widths; Loss, OptimizerUpdate and Comm nodes fit any
     *  model. */
    bool fits(const graph::Node& node) const;

    /** Both step() overloads: dense layers, tables, zeroGrad(). */
    template <typename Opt> void applyStep(Opt& opt);

    DlrmConfig config_;
    graph::StepGraph graph_;
    std::unique_ptr<nn::Mlp> bottom_;
    std::unique_ptr<nn::Mlp> top_;
    std::vector<nn::EmbeddingBag> tables_;
    /**
     * Mixed-dimension support: tables narrower than the shared width
     * project up through a learned Linear (null for full-width tables).
     */
    std::vector<std::unique_ptr<nn::Linear>> projections_;
    nn::CatInteraction cat_;
    nn::DotInteraction dot_;

    // Forward caches for backward.
    tensor::Tensor bottom_out_;
    std::vector<tensor::Tensor> pooled_raw_;
    std::vector<tensor::Tensor> pooled_;
    tensor::Tensor interact_out_;
    tensor::Tensor logits_;
    std::vector<nn::SparseGrad> sparse_grads_;

    // Scratch.
    std::vector<tensor::Tensor> d_pooled_raw_;
    tensor::Tensor d_logits_;
    tensor::Tensor d_interact_;
    /** Flatten-fused dot backward: the pairwise-slot columns of the
     *  interaction gradient, written compactly by the top-MLP layer-0
     *  segmented input-grad GEMM (d_interact_ stays unwritten then). */
    tensor::Tensor d_interact_pairs_;
    tensor::Tensor d_bottom_out_;
    std::vector<tensor::Tensor> d_pooled_;
    tensor::Tensor d_dense_in_;
};

} // namespace model
} // namespace recsim
