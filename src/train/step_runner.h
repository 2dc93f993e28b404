/**
 * @file
 * Graph-walk execution of one training step: the real trainer's side of
 * the "one iteration, one source of truth" contract. GraphExecutor is
 * the one walker of a StepGraph: it runs the graph's nodes in
 * dependency waves, hands each node to Dlrm::runNode (the one mapping
 * from a graph::Node to the model's primitives) and tags it with an obs
 * trace span and a flight-recorder sample named by the node's id — the
 * same ids the analytical nodeBreakdown() and the DES's node_seconds
 * report under, so measured, predicted and simulated per-node times
 * line up (bench/validation_graph_breakdown). runGraphStep is the
 * executor on a 1-thread pool.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "graph/step_graph.h"
#include "model/dlrm.h"
#include "util/thread_pool.h"

namespace recsim {
namespace train {

/**
 * Execute the forward + loss + backward of one step: a GraphExecutor
 * over @p graph on a 1-thread pool, so the nodes of a wave run one
 * after another on the calling thread while each node's kernels still
 * use the global pool.
 *
 * Bit-identical to model.forwardBackward(batch) when @p graph is the
 * unfused graph of the model's config, and to it or any other walk of
 * the same step when fused (the fusion contract). @p graph and
 * @p batch must match the model (checked by Dlrm::runNode). Comm nodes
 * are skipped — this is the single-process trainer — and the
 * OptimizerUpdate node is the caller's step().
 *
 * @return Mean BCE loss of the batch.
 */
double runGraphStep(model::Dlrm& model, const data::MiniBatch& batch,
                    const graph::StepGraph& graph);

/**
 * Dependency-aware parallel execution of one training step.
 *
 * Construction partitions the graph's executable nodes (Gemm,
 * EmbeddingLookup, Interaction — the nodes Dlrm::runNode maps to
 * model primitives) into forward *wavefronts*: wave k holds every node
 * whose longest dependency chain through executable nodes has length
 * k. Non-executable nodes (Loss runs between the halves, Optimizer is
 * the caller's step(), Comm has no local work) are skipped by taking
 * the transitive closure of their edges, so e.g. a bottom-MLP layer
 * gated on `comm.input` is simply ready at step start. The backward
 * half mirrors the waves over the reversed edges.
 *
 * runStep() executes the waves in order, dispatching the nodes of one
 * wave concurrently on the thread pool — per-table EmbeddingBag
 * lookups, mixed-dimension projection GEMMs and bottom-MLP layers
 * overlap, which is where the paper's CPU iteration time goes
 * (Figs 9-11).
 *
 * Determinism: results are bit-identical to Dlrm::forwardBackward()
 * at any pool size. Wave membership depends only on the graph; every node
 * writes only its own per-table / per-layer buffers inside the model;
 * and nested kernel parallelFors issued from a wave worker run inline
 * with the same chunk geometry as a walk on the calling thread
 * (ThreadPool guarantee), so each node's arithmetic is unchanged —
 * only the interleaving across *independent* nodes varies.
 *
 * Obs spans: "model.fwd", "loss" and "model.bwd" open on the calling
 * thread; per-node spans open on whichever worker runs the node,
 * landing on that thread's track (the Tracer is thread-safe for
 * concurrent begin/end).
 *
 * Flight recorder: when obs::recorderEnabled(), every dispatched node
 * records one sample per visit on a channel named by the node id
 * (interned once at construction), tagged with a step number drawn
 * from one process-wide counter (so steps of different executors
 * never share a tag) and the batch row count — the measured side the
 * obs::DriftMonitor folds against cost::IterationModel predictions.
 * Disabled cost is one relaxed atomic load per node.
 */
class GraphExecutor
{
  public:
    /**
     * Build the wavefront schedule for @p graph, which must stay
     * alive (and unmodified) for the executor's lifetime. Panics if
     * the graph fails validate(). Dispatches to @p pool — the global
     * kernel pool by default, whose inline-nesting rule keeps inner
     * kernels deterministic.
     */
    explicit GraphExecutor(const graph::StepGraph& graph,
                           util::ThreadPool& pool =
                               util::globalThreadPool());

    /**
     * Forward + loss + backward of one step, waves dispatched in
     * parallel. The graph and @p batch must match the model (checked
     * by Dlrm::runNode), and the return value / model state are
     * bit-identical to Dlrm::forwardBackward().
     *
     * @return Mean BCE loss of the batch.
     */
    double runStep(model::Dlrm& model,
                   const data::MiniBatch& batch) const;

    /**
     * Forward pass only: the forward waves dispatched in parallel, no
     * loss and no backward — the serving path (serve/engine.h). The
     * model's logits afterwards are bit-identical to
     * Dlrm::forward() on the same batch at any pool size. Usable with a full training graph
     * or with a graph::forwardSubgraph()-pruned one (both yield the
     * same forward waves, since pruning only drops nodes the schedule
     * already looked through).
     */
    void runForward(model::Dlrm& model,
                    const data::MiniBatch& batch) const;

    /** Forward waves: indices into the graph's nodes, per level. */
    const std::vector<std::vector<std::size_t>>& forwardWaves() const
    {
        return fwd_waves_;
    }

    /** Backward waves (reversed-edge levels), executed in order. */
    const std::vector<std::vector<std::size_t>>& backwardWaves() const
    {
        return bwd_waves_;
    }

  private:
    void runWave(const std::vector<std::size_t>& wave,
                 model::Dlrm& model, const data::MiniBatch& batch,
                 bool forward, uint64_t step) const;
    void dispatch(std::size_t node_index, model::Dlrm& model,
                  const data::MiniBatch& batch, bool forward,
                  uint64_t step) const;

    const graph::StepGraph* graph_;
    util::ThreadPool* pool_;
    std::vector<std::vector<std::size_t>> fwd_waves_;
    std::vector<std::vector<std::size_t>> bwd_waves_;
    /** Flight-recorder channel per node, interned at construction. */
    std::vector<uint32_t> node_channels_;
};

} // namespace train
} // namespace recsim
