#include "train/step_runner.h"

#include <algorithm>
#include <atomic>

#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace recsim {
namespace train {

namespace {

/** Nodes the trainer dispatches to a model primitive. */
bool
executableNode(const graph::Node& node)
{
    return node.kind == graph::NodeKind::Gemm ||
        node.kind == graph::NodeKind::EmbeddingLookup ||
        node.kind == graph::NodeKind::Interaction;
}

/**
 * RAII flight-recorder sample around one node dispatch: when the
 * recorder is enabled, times the enclosed work and records it on the
 * node's channel (one sample per visit — the forward and backward
 * halves record separately under the same id). Inactive construction
 * costs one relaxed atomic load, honoring the recorder's
 * disabled-path contract.
 */
class NodeSample
{
  public:
    NodeSample(uint32_t channel, uint64_t step, uint32_t rows)
    {
        if (obs::recorderEnabled()) {
            recorder_ = &obs::FlightRecorder::global();
            channel_ = channel;
            step_ = step;
            rows_ = rows;
            start_ns_ = recorder_->nowNs();
        }
    }

    ~NodeSample()
    {
        if (recorder_ != nullptr)
            recorder_->record(
                channel_, step_,
                static_cast<double>(recorder_->nowNs() - start_ns_) *
                    1e-9,
                rows_);
    }

    NodeSample(const NodeSample&) = delete;
    NodeSample& operator=(const NodeSample&) = delete;

  private:
    obs::FlightRecorder* recorder_ = nullptr;
    uint32_t channel_ = 0;
    uint32_t rows_ = 0;
    uint64_t step_ = 0;
    uint64_t start_ns_ = 0;
};

/**
 * Recorder step tags, shared by every executor in the process so that
 * samples from different executors — runGraphStep() builds one per
 * call — never share a tag.
 */
std::atomic<uint64_t> g_steps_issued{0};

uint64_t
nextStepTag()
{
    return obs::recorderEnabled()
        ? g_steps_issued.fetch_add(1, std::memory_order_relaxed)
        : 0;
}

} // namespace

double
runGraphStep(model::Dlrm& model, const data::MiniBatch& batch,
             const graph::StepGraph& graph)
{
    // A 1-thread pool runs a wave's nodes inline on the caller without
    // marking it as inside a pool task, so every node's kernels still
    // spread over the global pool exactly as in Dlrm::forwardBackward.
    static util::ThreadPool serial_pool(1);
    return GraphExecutor(graph, serial_pool).runStep(model, batch);
}

GraphExecutor::GraphExecutor(const graph::StepGraph& graph,
                             util::ThreadPool& pool)
    : graph_(&graph), pool_(&pool)
{
    const std::string problem = graph.validate();
    RECSIM_ASSERT(problem.empty(), "invalid StepGraph: {}", problem);

    const std::size_t n = graph.nodes.size();
    std::vector<char> exec(n, 0);
    for (std::size_t i = 0; i < n; ++i)
        exec[i] = executableNode(graph.nodes[i]) ? 1 : 0;

    // Effective deps: each node's executable predecessors, looking
    // through non-executable nodes (comm legs, loss, optimizer) so a
    // bound graph schedules exactly like its compute skeleton.
    const auto order = graph.topoOrder();
    std::vector<std::vector<std::size_t>> eff(n);
    for (std::size_t i : order) {
        std::vector<std::size_t> e;
        for (std::size_t d : graph.nodes[i].deps) {
            if (exec[d])
                e.push_back(d);
            else
                e.insert(e.end(), eff[d].begin(), eff[d].end());
        }
        std::sort(e.begin(), e.end());
        e.erase(std::unique(e.begin(), e.end()), e.end());
        eff[i] = std::move(e);
    }

    // Forward wave of a node = longest executable-dep chain below it.
    std::vector<std::size_t> level(n, 0);
    std::size_t deepest = 0;
    for (std::size_t i : order) {
        if (!exec[i])
            continue;
        for (std::size_t d : eff[i])
            level[i] = std::max(level[i], level[d] + 1);
        deepest = std::max(deepest, level[i]);
    }
    fwd_waves_.assign(deepest + 1, {});
    for (std::size_t i = 0; i < n; ++i) {
        if (exec[i])
            fwd_waves_[level[i]].push_back(i);
    }

    // Backward waves: levels of the reversed DAG. Visiting the topo
    // order backwards, every successor of i has already pushed its
    // level into blevel[i], so blevel[i] is final when visited.
    std::vector<std::size_t> blevel(n, 0);
    deepest = 0;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const std::size_t i = *it;
        if (!exec[i])
            continue;
        deepest = std::max(deepest, blevel[i]);
        for (std::size_t d : eff[i])
            blevel[d] = std::max(blevel[d], blevel[i] + 1);
    }
    bwd_waves_.assign(deepest + 1, {});
    for (std::size_t i = 0; i < n; ++i) {
        if (exec[i])
            bwd_waves_[blevel[i]].push_back(i);
    }

    // Intern one recorder channel per node up front: the record path
    // then never touches the intern mutex, only the per-thread stripe.
    node_channels_.reserve(n);
    auto& recorder = obs::FlightRecorder::global();
    for (const auto& node : graph.nodes)
        node_channels_.push_back(recorder.internChannel(node.id));
}

void
GraphExecutor::dispatch(std::size_t node_index, model::Dlrm& model,
                        const data::MiniBatch& batch, bool forward,
                        uint64_t step) const
{
    // The span opens on the executing thread, so concurrent nodes land
    // on their worker's track under the same node-id names the cost
    // model and the DES report. The recorder sample lands on the
    // worker's stripe under the same id.
    const graph::Node& node = graph_->nodes[node_index];
    NodeSample sample(node_channels_[node_index], step,
                      static_cast<uint32_t>(batch.batchSize()));
    obs::TraceSpan span(node.id.c_str());
    model.runNode(node, batch, forward);
}

void
GraphExecutor::runWave(const std::vector<std::size_t>& wave,
                       model::Dlrm& model, const data::MiniBatch& batch,
                       bool forward, uint64_t step) const
{
    if (wave.empty())
        return;
    if (wave.size() == 1) {
        dispatch(wave[0], model, batch, forward, step);
        return;
    }
    // Grain 1: one node per pool task. Each node writes only its own
    // layer/table buffers, and its inner kernel parallelFor runs
    // inline on the worker (nested-submit rule) with the same chunk
    // geometry as a walk on the calling thread — hence bit-identical
    // results.
    pool_->parallelFor(
        0, wave.size(), 1, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t k = lo; k < hi; ++k)
                dispatch(wave[k], model, batch, forward, step);
        });
}

void
GraphExecutor::runForward(model::Dlrm& model,
                          const data::MiniBatch& batch) const
{
    const uint64_t step = nextStepTag();
    RECSIM_TRACE_SPAN("model.fwd");
    for (const auto& wave : fwd_waves_)
        runWave(wave, model, batch, /*forward=*/true, step);
}

double
GraphExecutor::runStep(model::Dlrm& model,
                       const data::MiniBatch& batch) const
{
    const uint64_t step = nextStepTag();
    double loss = 0.0;
    {
        RECSIM_TRACE_SPAN("model.fwd");
        for (const auto& wave : fwd_waves_)
            runWave(wave, model, batch, /*forward=*/true, step);
    }
    {
        obs::TraceSpan span("loss");
        loss = model.lossBackward(batch);
    }
    {
        RECSIM_TRACE_SPAN("model.bwd");
        for (const auto& wave : bwd_waves_)
            runWave(wave, model, batch, /*forward=*/false, step);
    }
    return loss;
}

} // namespace train
} // namespace recsim
