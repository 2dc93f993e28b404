#include "train/trainer.h"

#include "graph/step_graph.h"
#include "nn/loss.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/pool_metrics.h"
#include "obs/trace.h"
#include "train/step_runner.h"
#include "util/logging.h"

namespace recsim {
namespace train {

void
evaluateModel(model::Dlrm& model, data::SyntheticCtrDataset& dataset,
              std::size_t eval_examples, TrainResult& result)
{
    RECSIM_ASSERT(dataset.materializedSize() > eval_examples,
                  "dataset too small for {} eval examples",
                  eval_examples);
    const std::size_t eval_start =
        dataset.materializedSize() - eval_examples;
    // Evaluate in chunks to bound peak memory.
    const std::size_t chunk = 2048;
    double loss_sum = 0.0;
    double correct = 0.0;
    std::vector<float> all_labels;
    std::vector<float> all_logits;
    all_labels.reserve(eval_examples);
    all_logits.reserve(eval_examples);
    tensor::Tensor logits;
    for (std::size_t off = 0; off < eval_examples; off += chunk) {
        const std::size_t n = std::min(chunk, eval_examples - off);
        data::MiniBatch batch = dataset.epochBatch(eval_start + off, n);
        model.forward(batch, logits);
        loss_sum += nn::bceWithLogitsLoss(logits, batch.labels) *
            static_cast<double>(n);
        correct += nn::accuracy(logits, batch.labels) *
            static_cast<double>(n);
        for (std::size_t i = 0; i < n; ++i) {
            all_labels.push_back(batch.labels[i]);
            all_logits.push_back(logits.data()[i]);
        }
    }
    result.eval_loss = loss_sum / static_cast<double>(eval_examples);
    result.eval_accuracy = correct / static_cast<double>(eval_examples);

    tensor::Tensor logit_tensor(all_logits.size());
    std::copy(all_logits.begin(), all_logits.end(), logit_tensor.data());
    result.eval_ne = nn::normalizedEntropy(logit_tensor, all_labels);
}

TrainResult
trainSingleThread(const model::DlrmConfig& model_config,
                  data::SyntheticCtrDataset& dataset,
                  const TrainConfig& config, std::size_t eval_examples)
{
    RECSIM_ASSERT(dataset.materializedSize() > eval_examples,
                  "materialize() the dataset before training");
    const std::size_t train_examples =
        dataset.materializedSize() - eval_examples;
    RECSIM_ASSERT(config.batch_size > 0 &&
                  config.batch_size <= train_examples,
                  "batch size {} vs {} training examples",
                  config.batch_size, train_examples);

    model::Dlrm model(model_config, config.model_seed);
    if (config.embedding_backend == EmbeddingBackendKind::Cached)
        model.installCachedEmbeddingBackends(
            config.hot_tier_bytes, config.hot_tier_refresh_every);
    // The same per-step operator graph the cost model and the DES
    // consume drives the real training loop (train/step_runner.h).
    // The executor dispatches independent nodes (per-table lookups,
    // projections, bottom MLP) concurrently; results are bit-identical
    // to Dlrm::forwardBackward() at any RECSIM_THREADS.
    graph::StepGraph graph = model.graph();
    if (config.fuse_graph)
        graph::fusePass(graph);
    const GraphExecutor executor(graph);
    nn::Sgd sgd(config.learning_rate);
    nn::Adagrad adagrad(config.learning_rate);

    // Flight-recorder channels for the per-step series, interned once
    // outside the loop; the loop body itself only pays the enabled()
    // load when recording is off.
    auto& recorder = obs::FlightRecorder::global();
    const uint32_t step_channel = recorder.internChannel("train.step_s");
    const uint32_t loss_channel = recorder.internChannel("train.loss");
    const obs::PoolSnapshot pool_before = obs::snapshotThreadPool();

    TrainResult result;
    const std::size_t steps_per_epoch =
        train_examples / config.batch_size;
    const std::size_t total_steps = steps_per_epoch * config.epochs;
    const std::size_t tail_start =
        total_steps - std::max<std::size_t>(total_steps / 10, 1);
    double tail_loss = 0.0;
    std::size_t tail_count = 0;

    std::size_t step = 0;
    for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
        for (std::size_t it = 0; it < steps_per_epoch; ++it, ++step) {
            RECSIM_TRACE_SPAN("train.iteration");
            const uint64_t iter_start = obs::Tracer::global().nowNs();
            double loss = 0.0;
            data::MiniBatch batch;
            {
                RECSIM_TRACE_SPAN("train.data");
                batch = dataset.epochBatch(it * config.batch_size,
                                           config.batch_size);
            }
            {
                RECSIM_TRACE_SPAN("train.fwd_bwd");
                loss = executor.runStep(model, batch);
            }
            {
                RECSIM_TRACE_SPAN("train.optimizer");
                // The graph's OptimizerUpdate node closes the step.
                RECSIM_TRACE_SPAN("optimizer");
                if (config.optimizer == OptimizerKind::Sgd)
                    model.step(sgd);
                else
                    model.step(adagrad);
            }
            auto& metrics = obs::MetricsRegistry::global();
            metrics.incr("train.iterations");
            const double iter_s = static_cast<double>(
                obs::Tracer::global().nowNs() - iter_start) * 1e-9;
            metrics.observe("train.iteration_seconds", iter_s);
            if (obs::recorderEnabled()) {
                const uint32_t rows =
                    static_cast<uint32_t>(batch.batchSize());
                recorder.record(step_channel, step, iter_s, rows);
                recorder.record(loss_channel, step, loss, rows);
            }
            if (step >= tail_start) {
                tail_loss += loss;
                ++tail_count;
            }
            if (config.eval_every && step % config.eval_every == 0)
                result.loss_curve.emplace_back(step, loss);
        }
    }
    result.steps = step;
    result.final_train_loss =
        tail_count ? tail_loss / static_cast<double>(tail_count) : 0.0;
    evaluateModel(model, dataset, eval_examples, result);
    obs::publishThreadPoolMetrics();
    // The run's own pool consumption (jobs/tasks/idle attributable to
    // this training loop, not the process lifetime).
    obs::publishThreadPoolMetrics(
        "train.pool", obs::poolDelta(pool_before,
                                     obs::snapshotThreadPool()));
    return result;
}

} // namespace train
} // namespace recsim
