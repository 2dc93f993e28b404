/**
 * @file
 * Forward-only inference engine: the back of the serving stack. Lowers
 * the StepGraph the model owns (Dlrm::graph()) to its forward subgraph (the exact compute
 * nodes the trainer runs, minus loss/optimizer/comm) and executes it
 * with the dependency-aware GraphExecutor on the shared ThreadPool —
 * so serving scores are bitwise-identical to the training forward
 * pass, at any pool size, by construction.
 *
 * replay() closes the loop with the load generator and scheduler: a
 * virtual-clock event loop walks an arrival trace, lets the scheduler
 * form batches, executes each batch for real (the service time is the
 * measured wall time of the forward pass), and advances the clock by
 * it. Queries therefore accumulate genuine queueing delay + service
 * time without the harness ever sleeping — an offered load far above
 * capacity replays as fast as the compute itself, which is what makes
 * QPS-vs-SLA sweeps (bench/serving) tractable.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "data/dataset.h"
#include "graph/step_graph.h"
#include "model/dlrm.h"
#include "serve/scheduler.h"
#include "stats/log_histogram.h"
#include "stats/sample_set.h"
#include "train/step_runner.h"
#include "util/thread_pool.h"

namespace recsim {
namespace serve {

/** Knobs of one replay run. */
struct ReplayConfig
{
    BatchingConfig batching;
    /** Seed of the synthetic feature stream backing the queries. */
    uint64_t data_seed = 42;
    /** Width (virtual seconds) of the rolling latency windows. */
    double latency_window_s = 1.0;
    /** Relative error bound of the latency log-histogram — the p50/
     *  p95/p99 in the report are within this of an exact sample. */
    double latency_relative_error = 0.01;
};

/** What one replay run observed. */
struct ServeReport
{
    std::size_t offered = 0;  ///< Queries in the trace.
    std::size_t served = 0;   ///< Completed (possibly late).
    std::size_t evicted = 0;  ///< Dropped past-deadline, never run.
    std::size_t batches = 0;  ///< Forward passes executed.

    /** Trace duration (last arrival), and completion of the last
     *  batch — achieved QPS is served / makespan. */
    double duration_s = 0.0;
    double makespan_s = 0.0;
    double offered_qps = 0.0;
    double achieved_qps = 0.0;

    /** Engine busy time; busy_s / makespan_s is utilization. */
    double busy_s = 0.0;

    /** Completion latency (arrival -> batch completion), seconds.
     *  Evicted queries never complete and are excluded here; they
     *  count toward sla_violation_rate instead. Percentiles come from
     *  the wait-free log-bucketed histogram (relative error
     *  latency_relative_error), not an exact sample sort. */
    stats::TailSummary latency;

    /** Rolling latency windows over the virtual clock
     *  (latency_window_s wide), each with its own percentiles —
     *  the time-resolved view behind the summary above. */
    std::vector<stats::WindowSummary> windows;

    /** (evicted + served-late) / offered. */
    double sla_violation_rate = 0.0;

    double mean_batch_queries = 0.0;
    double mean_batch_items = 0.0;
};

/**
 * One model instance serving queries. Holds the model, its forward
 * subgraph and the executor; one in-flight batch at a time (the
 * intra-batch parallelism lives inside the forward pass, on the
 * ThreadPool).
 */
class InferenceEngine
{
  public:
    /**
     * Instantiate @p config for serving (same size limits as training
     * instantiation). @p pool must outlive the engine.
     */
    explicit InferenceEngine(const model::DlrmConfig& config,
                             uint64_t seed = 1,
                             util::ThreadPool& pool =
                                 util::globalThreadPool());

    InferenceEngine(const InferenceEngine&) = delete;
    InferenceEngine& operator=(const InferenceEngine&) = delete;

    /** The pruned forward-only StepGraph the engine executes. */
    const graph::StepGraph& forwardGraph() const { return graph_; }

    /**
     * Score one feature batch (forward pass only) and return the
     * measured wall seconds. Scores land in logits().
     */
    double scoreBatch(const data::MiniBatch& batch);

    /** Logits of the most recent scoreBatch(), [rows, 1]. */
    const tensor::Tensor& logits() const { return model_->logits(); }

    model::Dlrm& model() { return *model_; }

    /**
     * Replay an arrival trace through a batching policy in virtual
     * time, executing every batch for real. @p queries must be in
     * nondecreasing arrival order (LoadGenerator output is). Records
     * per-query completion latencies into a wait-free windowed
     * log-histogram (rolling percentiles keyed on the *virtual*
     * completion clock) and the obs MetricsRegistry ("serve.*"
     * counters and timings). When the flight recorder is enabled,
     * each retired batch records its measured service time
     * ("serve.batch_s") and the queue depth at retire
     * ("serve.queue_depth").
     */
    ServeReport replay(const std::vector<Query>& queries,
                       const ReplayConfig& config);

  private:
    model::DlrmConfig config_;
    std::unique_ptr<model::Dlrm> model_;
    graph::StepGraph graph_;
    std::unique_ptr<train::GraphExecutor> executor_;
};

} // namespace serve
} // namespace recsim
