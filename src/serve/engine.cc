#include "serve/engine.h"

#include <algorithm>
#include <chrono>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats/log_histogram.h"
#include "util/logging.h"

namespace recsim {
namespace serve {

namespace {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

InferenceEngine::InferenceEngine(const model::DlrmConfig& config,
                                 uint64_t seed, util::ThreadPool& pool)
    : config_(config),
      model_(std::make_unique<model::Dlrm>(config, seed)),
      graph_(graph::forwardSubgraph(model_->graph()))
{
    executor_ = std::make_unique<train::GraphExecutor>(graph_, pool);
}

double
InferenceEngine::scoreBatch(const data::MiniBatch& batch)
{
    obs::TraceSpan span("serve.batch");
    const double t0 = nowSeconds();
    executor_->runForward(*model_, batch);
    return nowSeconds() - t0;
}

ServeReport
InferenceEngine::replay(const std::vector<Query>& queries,
                        const ReplayConfig& config)
{
    ServeReport report;
    report.offered = queries.size();
    if (queries.empty())
        return report;

    data::DatasetConfig ds_cfg;
    ds_cfg.num_dense = config_.num_dense;
    ds_cfg.sparse = config_.sparse;
    ds_cfg.seed = config.data_seed;
    data::SyntheticCtrDataset features(ds_cfg);

    BatchScheduler sched(config.batching);
    auto& metrics = obs::MetricsRegistry::global();
    // Completions land in a windowed log-bucketed histogram: wait-free
    // adds on the batch-retire path (today one driver thread retires
    // batches, but the histogram lets future multi-engine drivers
    // share it without a lock), windows keyed on the virtual clock so
    // rolling percentiles line up with the replayed timeline.
    stats::WindowedHistogram latencies(config.latency_window_s,
                                       /*max_windows=*/4096,
                                       config.latency_relative_error);
    auto& recorder = obs::FlightRecorder::global();
    const uint32_t batch_channel =
        recorder.internChannel("serve.batch_s");
    const uint32_t queue_channel =
        recorder.internChannel("serve.queue_depth");

    std::size_t next = 0;  // Next arrival to admit.
    std::size_t late = 0;
    double clock = 0.0;
    double sum_batch_queries = 0.0, sum_batch_items = 0.0;

    while (next < queries.size() || !sched.idle()) {
        if (sched.idle()) {
            // Engine caught up with the stream: jump to the next
            // arrival.
            clock = std::max(clock, queries[next].arrival_s);
            while (next < queries.size() &&
                   queries[next].arrival_s <= clock)
                sched.enqueue(queries[next++]);
        }
        // Admit every arrival up to the release horizon. Admissions
        // can only pull the horizon earlier (a cap may fill sooner;
        // the head never changes), so iterate to the fixed point.
        double release = sched.releaseTime(clock);
        for (;;) {
            bool admitted = false;
            while (next < queries.size() &&
                   queries[next].arrival_s <= release) {
                sched.enqueue(queries[next++]);
                admitted = true;
            }
            if (!admitted)
                break;
            release = sched.releaseTime(clock);
        }

        Batch batch = sched.pop(release);
        const auto evicted_now = sched.drainEvicted();
        report.evicted += evicted_now.size();
        metrics.incr("serve.evicted", evicted_now.size());
        if (batch.queries.empty()) {
            // Everything admissible was evicted; the clock still
            // advances to the dispatch attempt.
            clock = std::max(clock, release);
            continue;
        }

        const std::size_t rows = batch.totalItems();
        const data::MiniBatch mb = features.nextBatch(rows);
        const double service = scoreBatch(mb);
        const double done = release + service;

        report.busy_s += service;
        ++report.batches;
        sum_batch_queries += static_cast<double>(batch.queries.size());
        sum_batch_items += static_cast<double>(rows);
        metrics.incr("serve.batches");
        metrics.incr("serve.queries", batch.queries.size());
        metrics.observe("serve.service_s", service);
        metrics.observe("serve.batch_items",
                        static_cast<double>(rows));
        if (obs::recorderEnabled()) {
            recorder.record(batch_channel, report.batches, service,
                            static_cast<uint32_t>(rows));
            recorder.record(queue_channel, report.batches,
                            static_cast<double>(sched.pendingQueries()));
        }
        for (const Query& q : batch.queries) {
            const double lat = done - q.arrival_s;
            latencies.add(done, lat);
            metrics.observe("serve.latency_s", lat);
            if (done > q.deadline_s)
                ++late;
        }
        report.served += batch.queries.size();
        report.makespan_s = std::max(report.makespan_s, done);
        clock = done;
    }

    report.duration_s = queries.back().arrival_s;
    report.makespan_s = std::max(report.makespan_s, report.duration_s);
    report.offered_qps = report.duration_s > 0.0
        ? static_cast<double>(report.offered) / report.duration_s
        : 0.0;
    report.achieved_qps = report.makespan_s > 0.0
        ? static_cast<double>(report.served) / report.makespan_s
        : 0.0;
    report.latency = latencies.tail();
    report.windows = latencies.windows();
    report.sla_violation_rate =
        static_cast<double>(report.evicted + late) /
        static_cast<double>(report.offered);
    if (report.batches > 0) {
        report.mean_batch_queries =
            sum_batch_queries / static_cast<double>(report.batches);
        report.mean_batch_items =
            sum_batch_items / static_cast<double>(report.batches);
    }
    RECSIM_ASSERT(report.served + report.evicted == report.offered,
                  "replay lost queries: {} served + {} evicted != {}",
                  report.served, report.evicted, report.offered);
    return report;
}

} // namespace serve
} // namespace recsim
