/**
 * @file
 * serve_open: the M1_prod serving replica (built as bench/serving
 * builds it) under open-loop diurnal-Poisson arrivals at fixed absolute
 * rates with the default BatchingConfig. Latency is measured on a
 * virtual clock: each query is timed from its scheduled arrival, and
 * the clock advances by the measured time of each forward pass, so the
 * generator is never late. The gated figures come from the benchmark's
 * copy of InferenceEngine::replay's loop, which times each pass on the
 * thread's CPU clock over the host gauge's slowdown of the last few
 * traces (see replayLoop); the SLA ladder is replayed by
 * InferenceEngine::replay itself. The SLA and the rates are constants,
 * never calibrated per run, so two commits are offered the same load.
 */
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>

#include "data/dataset.h"
#include "model/config.h"
#include "model/dlrm.h"
#include "obs/pool_metrics.h"
#include "serve/engine.h"
#include "serve/load_gen.h"
#include "serve/scheduler.h"
#include "util/thread_pool.h"
#include "gauge.h"
#include "workload.h"

namespace perfbench {

using namespace recsim;

namespace {

/**
 * Serving runs on a 1-thread pool. At ~100-row batches a 4-thread
 * fork-join spends its time waking workers, and on a shared host those
 * wake-ups are where other tenants' load lands: served p99 read 7 to
 * 18 ms and capacity 900 to 1440 queries/s between runs minutes apart.
 * One thread scores these batches about as fast (0.81 vs 0.94 ms p50
 * for 70 rows on a 4-core host) without the stalls, and runs each pass
 * wholly on the calling thread, whose CPU clock then times all of it.
 */
constexpr std::size_t kServeThreads = 1;

/**
 * Gauge samples taken before each trace. A trace's slowdown is the
 * median of the last kGaugeWindow samples, those of the last three
 * traces: a few seconds, as kGaugeGroups gives the other workloads.
 */
constexpr int kGaugeSamplesPerTrace = 5;
constexpr std::size_t kGaugeWindow = 3 * kGaugeSamplesPerTrace;

/** Per-query latency SLA, seconds. */
constexpr double kSlaS = 0.050;

/** An offered rate and the queries offered at it per second of the
 *  run's --seconds. */
struct Rung
{
    double qps;
    double queries_per_run_s;
};

/**
 * The SLA ladder, lowest rate first, replayed by
 * InferenceEngine::replay for serve_qps_at_sla. 1600 qps is about
 * twice what the engine sustains.
 */
constexpr Rung kLadder[] = {{200, 15}, {400, 15}, {1600, 5}};

/**
 * The reference rate of the latency percentiles, below the knee,
 * replayed by the benchmark's loop as kRefTraces traces of at least
 * 250 queries, each about a second of the host's time; its latencies
 * are the median over them. The gated tail is p95,
 * which rests on >= 12 queries of a trace. p99 is taken over all the
 * traces' queries together and only reported.
 */
constexpr Rung kReference = {200, 150};
constexpr std::size_t kRefTraces = 12;
constexpr std::size_t kRefMinQueries = 250;

/**
 * Capacity traces: an overload rate, four times the ladder's top, with
 * a deadline far beyond any queueing delay so nothing is evicted. The
 * engine then runs full batches back to back, and served / makespan is
 * its sustained rate, well below the offered one even on a fast host.
 */
constexpr Rung kCapacity = {6400, 50};
constexpr std::size_t kCapacityTraces = 10;
constexpr double kCapacitySlaS = 10.0;

/** Queries per trace when @p r is spread over @p traces traces. */
std::size_t
traceQueries(const Rung& r, double seconds, std::size_t traces,
             std::size_t at_least = 1)
{
    return std::max(at_least,
                    static_cast<std::size_t>(r.queries_per_run_s * seconds /
                                             static_cast<double>(traces)));
}

/** bench/serving's replica: production feature mix, small tables. */
model::DlrmConfig
servingReplica(model::DlrmConfig cfg)
{
    cfg.name += "_serve";
    cfg.emb_dim = 16;
    cfg.bottom_mlp = {64, 32};
    cfg.top_mlp = {64, 32};
    for (auto& f : cfg.sparse) {
        f.hash_size = std::min<uint64_t>(f.hash_size, 4096);
        f.raw_id_space = 0;
        f.truncation = 8;
        f.dim_override = 0;
    }
    return cfg;
}

data::DatasetConfig
featuresFor(const model::DlrmConfig& m, uint64_t seed)
{
    data::DatasetConfig cfg;
    cfg.num_dense = m.num_dense;
    cfg.sparse = m.sparse;
    cfg.seed = seed;
    return cfg;
}

/** One whole diurnal period (peak 1.5x trough) per trace. */
std::vector<serve::Query>
trace(const model::DlrmConfig& m, double rate, std::size_t queries,
      uint64_t seed, double sla_s = kSlaS)
{
    auto cfg = serve::loadForModel(m, rate, sla_s);
    const double duration = static_cast<double>(queries) / rate;
    cfg.seed = seed;
    cfg.diurnal_amplitude = 0.5;
    cfg.diurnal_period_s = duration;
    serve::LoadGenerator gen(cfg);
    return gen.generate(duration);
}

/** Trace streams after the ladder rungs (0, 1, 2); each seeds its
 *  traces apart. */
constexpr std::size_t kWarmStream = 3;
constexpr std::size_t kCapacityStream = 4;
constexpr std::size_t kReferenceStream = 5;

/** Seed of the arrivals and features of trace @p k of @p stream. */
uint64_t
traceSeed(uint64_t seed, std::size_t stream, std::size_t k = 0)
{
    return seed * 1000003 + stream * 16 + k;
}

RateOutcome
outcome(double qps, std::size_t queries, const serve::ServeReport& r)
{
    RateOutcome o;
    o.rate_qps = qps;
    o.duration_s = static_cast<double>(queries) / qps;
    o.offered = r.offered;
    o.evicted = r.evicted;
    const auto missed = static_cast<std::size_t>(
        std::llround(r.sla_violation_rate * static_cast<double>(r.offered)));
    o.late = missed - std::min(missed, r.evicted);
    o.on_time = r.served - std::min(r.served, o.late);
    o.drain_s = r.makespan_s - r.duration_s;
    o.sla_s = kSlaS;
    return o;
}

/** What the benchmark's replay loop saw over one trace. */
struct LoopStats
{
    std::size_t served = 0;
    std::size_t evicted = 0;
    /** Served after the query's deadline. */
    std::size_t late = 0;
    std::size_t batches = 0;
    double items = 0.0;
    /** Virtual time of the last completion (or arrival), seconds. */
    double makespan_s = 0.0;
    /** Summed service time of the forward passes, seconds. */
    double busy_s = 0.0;
    /** Per served query, in completion order, ms. */
    std::vector<double> latency_ms, wait_ms;
    /** Per forward pass, ms. */
    std::vector<double> service_ms;
    /** Thread CPU time of the whole loop, features and scheduling
     *  included, seconds. */
    double host_s = 0.0;
    /** Pool jobs and tasks the loop dispatched. */
    obs::PoolSnapshot pool;
};

/**
 * The loop of InferenceEngine::replay, run by the benchmark over
 * @p queries: the same BatchScheduler calls, features and scoreBatch
 * calls on the same virtual clock, each call in a span. One thing
 * differs: a forward pass advances the clock by the CPU time the
 * benchmark's thread spent in scoreBatch over the host's @p slowdown,
 * not by its wall time. The pool has one thread, so the pass runs
 * entirely on this thread, and the time it waited for a core (other
 * processes, hypervisor steal) stays out of the served latencies. With
 * wall time, capacity and p95 moved by 20 to 40% between runs minutes
 * apart on a shared host.
 */
LoopStats
replayLoop(serve::InferenceEngine& engine, const model::DlrmConfig& m,
           const std::vector<serve::Query>& queries, uint64_t seed,
           double slowdown, SpanRecorder& spans)
{
    LoopStats st;
    data::SyntheticCtrDataset features(featuresFor(m, seed));
    serve::BatchScheduler sched(serve::BatchingConfig{});
    std::size_t next = 0;
    double clock = 0.0;
    const obs::PoolSnapshot pool_before = obs::snapshotThreadPool();
    const double t0 = threadCpuSeconds();
    while (next < queries.size() || !sched.idle()) {
        serve::Batch batch;
        double release = 0.0;
        {
            Span s(spans, "serve.scheduler");
            if (sched.idle()) {
                clock = std::max(clock, queries[next].arrival_s);
                while (next < queries.size() &&
                       queries[next].arrival_s <= clock)
                    sched.enqueue(queries[next++]);
            }
            release = sched.releaseTime(clock);
            for (bool admitted = true; admitted;) {
                admitted = false;
                while (next < queries.size() &&
                       queries[next].arrival_s <= release) {
                    sched.enqueue(queries[next++]);
                    admitted = true;
                }
                if (admitted)
                    release = sched.releaseTime(clock);
            }
            batch = sched.pop(release);
            st.evicted += sched.drainEvicted().size();
        }
        if (batch.queries.empty()) {
            clock = std::max(clock, release);
            continue;
        }
        const std::size_t rows = batch.totalItems();
        data::MiniBatch mb;
        {
            Span s(spans, "data.batch", rows);
            mb = features.nextBatch(rows);
        }
        double service = 0.0;
        {
            Span s(spans, "serve.score", rows);
            const double c0 = threadCpuSeconds();
            engine.scoreBatch(mb);
            service = (threadCpuSeconds() - c0) / slowdown;
        }
        const double done = release + service;
        for (const auto& q : batch.queries) {
            st.latency_ms.push_back((done - q.arrival_s) * 1e3);
            st.wait_ms.push_back((release - q.arrival_s) * 1e3);
            st.late += done > q.deadline_s ? 1 : 0;
        }
        st.service_ms.push_back(service * 1e3);
        st.busy_s += service;
        st.items += static_cast<double>(rows);
        st.served += batch.queries.size();
        ++st.batches;
        st.makespan_s = std::max(st.makespan_s, done);
        clock = done;
    }
    st.host_s = threadCpuSeconds() - t0;
    st.pool = obs::poolDelta(pool_before, obs::snapshotThreadPool());
    st.makespan_s = std::max(st.makespan_s, queries.back().arrival_s);
    return st;
}

/** Per-layer metrics of a traced replayLoop over @p queries. */
void
perLayer(const LoopStats& st, std::size_t queries,
         const SpanRecorder& spans, WorkloadResult& res)
{
    const double offered = static_cast<double>(queries);
    const double batches = static_cast<double>(st.batches);
    double wait_sum = 0.0;
    for (double w : st.wait_ms)
        wait_sum += w;
    auto& v = res.values;
    v["serve.service_ms_p50"] = percentile(st.service_ms, 0.5);
    v["serve.queue_wait_ms_mean"] =
        wait_sum / static_cast<double>(st.wait_ms.size());
    v["serve.scheduler_us_per_batch"] =
        percentile(spans.selfTimesMs("serve.scheduler"), 0.5) * 1e3;
    v["serve.batch_queries_mean"] = static_cast<double>(st.served) / batches;
    v["serve.batch_items_mean"] = st.items / batches;
    v["serve.engine_busy_share"] = st.busy_s / st.makespan_s;
    v["serve.evicted_frac"] = static_cast<double>(st.evicted) / offered;
    v["serve.late_frac"] = static_cast<double>(st.late) / offered;
    v["data.batch_ms"] = percentile(spans.selfTimesMs("data.batch"), 0.5);
    // Per scored batch. A 1-thread pool runs chunks inline and has no
    // workers to idle.
    v["pool.jobs_per_step"] = static_cast<double>(st.pool.jobs) / batches;
    v["pool.tasks_per_step"] = static_cast<double>(st.pool.tasks) / batches;
    res.report.push_back(line(
        "  traced replay @ %.0f qps: %zu batches, service p50 %.3f ms, "
        "queue wait p50 %.3f ms, mean %.3f ms (%zu queries), host %.3f s",
        kReference.qps, st.batches, v["serve.service_ms_p50"],
        percentile(st.wait_ms, 0.5), v["serve.queue_wait_ms_mean"],
        st.wait_ms.size(), st.host_s));
}

} // namespace

WorkloadResult
runServe(const RunOptions& opt, SpanRecorder& spans)
{
    WorkloadResult res;
    auto& pool = util::globalThreadPool();
    pool.resize(kServeThreads);
    const auto cfg = servingReplica(model::DlrmConfig::m1Prod());

    // Set-up time on the thread's CPU clock over the host's slowdown,
    // like the service times. Besides the engine that serves, one more
    // is built and dropped before every measured trace, so that setup_s
    // is a median over the whole run rather than over a fraction of a
    // second.
    std::vector<double> samples, slowdowns;
    auto slowdownNow = [&] {
        for (int i = 0; i < kGaugeSamplesPerTrace; ++i)
            samples.push_back(hostSlowdown());
        const std::size_t from =
            samples.size() - std::min(samples.size(), kGaugeWindow);
        slowdowns.push_back(percentile(
            std::vector<double>(samples.begin() + from, samples.end()),
            0.5));
        return slowdowns.back();
    };
    std::vector<double> setup_s;
    auto timedEngine = [&](double slowdown) {
        const double t0 = threadCpuSeconds();
        auto e = std::make_unique<serve::InferenceEngine>(cfg, opt.seed);
        setup_s.push_back((threadCpuSeconds() - t0) / slowdown);
        return e;
    };
    const auto engine = timedEngine(slowdownNow());

    // Served scores must equal the training forward pass bit for bit,
    // on batch sizes up to the scheduler's largest. That largest batch
    // also takes the engine's buffers to their full size at the start,
    // so the run's peak RSS does not depend on which batch sizes the
    // seed's traces happen to reach (it moved by 4 MB between seeds).
    {
        data::SyntheticCtrDataset ds(featuresFor(cfg, opt.seed + 1));
        model::Dlrm ref(cfg, opt.seed);
        tensor::Tensor expect;
        const std::size_t largest = serve::BatchingConfig{}.max_batch_items;
        for (const std::size_t rows : {std::size_t{1}, std::size_t{17},
                                       std::size_t{70}, std::size_t{256},
                                       largest}) {
            const auto batch = ds.nextBatch(rows);
            ref.forward(batch, expect);
            engine->scoreBatch(batch);
            const auto& got = engine->logits();
            res.ops.check(got.size() == expect.size() &&
                              std::memcmp(got.data(), expect.data(),
                                          got.size() * sizeof(float)) == 0,
                          line("scoreBatch(%zu rows) differs from "
                               "Dlrm::forward", rows));
        }
    }

    SpanRecorder off(false);
    auto loop = [&](const std::vector<serve::Query>& q, uint64_t seed,
                    double slowdown, SpanRecorder& rec) {
        auto st = replayLoop(*engine, cfg, q, seed, slowdown, rec);
        res.ops.check(st.served + st.evicted == q.size(),
                      line("replay loop: %zu served + %zu evicted != %zu",
                           st.served, st.evicted, q.size()));
        return st;
    };
    for (const double w0 = nowSeconds(); nowSeconds() - w0 < kWarmSeconds;) {
        const uint64_t seed = traceSeed(opt.seed, kWarmStream);
        loop(trace(cfg, kReference.qps, 200, seed), seed, 1.0, off);
    }

    // The reference rate gives the latency percentiles and the
    // capacity traces the served rate, each as the median over its
    // traces. The two kinds alternate, so both span the whole run
    // rather than a few seconds of it. Every reference query is
    // served; that is the premise of reading its latencies as the
    // engine's.
    const std::size_t ref_n = traceQueries(kReference, opt.seconds,
                                           kRefTraces, kRefMinQueries);
    const std::size_t cap_n =
        traceQueries(kCapacity, opt.seconds, kCapacityTraces);
    std::vector<double> ref_p50, ref_p95, all_latency_ms, capacity;
    std::vector<serve::Query> ref_queries;
    double ref_host_s = 0.0;
    const std::size_t rounds =
        opt.trace ? 1 : std::max(kRefTraces, kCapacityTraces);
    for (std::size_t k = 0; k < rounds; ++k) {
        if (k < kRefTraces) {
            const double slowdown = slowdownNow();
            timedEngine(slowdown);
            const uint64_t seed = traceSeed(opt.seed, kReferenceStream, k);
            auto q = trace(cfg, kReference.qps, ref_n, seed);
            const auto st = loop(q, seed, slowdown, off);
            res.ops.check(st.evicted == 0,
                          line("%zu of %zu queries evicted at the %.0f qps "
                               "reference rate", st.evicted, q.size(),
                               kReference.qps));
            ref_p50.push_back(percentile(st.latency_ms, 0.5));
            ref_p95.push_back(percentile(st.latency_ms, 0.95));
            all_latency_ms.insert(all_latency_ms.end(),
                                  st.latency_ms.begin(),
                                  st.latency_ms.end());
            if (k == 0) {
                ref_host_s = st.host_s;
                ref_queries = std::move(q);
            }
        }
        if (!opt.trace && k < kCapacityTraces) {
            const double slowdown = slowdownNow();
            timedEngine(slowdown);
            const uint64_t seed = traceSeed(opt.seed, kCapacityStream, k);
            const auto q =
                trace(cfg, kCapacity.qps, cap_n, seed, kCapacitySlaS);
            const auto st = loop(q, seed, slowdown, off);
            res.ops.check(st.served == q.size(),
                          line("capacity replay evicted %zu of %zu queries",
                               st.evicted, q.size()));
            capacity.push_back(static_cast<double>(st.served) /
                               st.makespan_s);
        }
    }
    const double serve_p50 = percentile(ref_p50, 0.5);
    const double serve_p95 = percentile(ref_p95, 0.5);
    const double serve_p99 = percentile(all_latency_ms, 0.99);

    res.report.push_back(line(
        "%s: %s; SLA %.1f ms, default batching, %zu threads; host "
        "slowdown %.3f (median over %zu traces, each the median of the "
        "last %zu gauge samples)",
        cfg.name.c_str(), cfg.summary().c_str(), kSlaS * 1e3,
        kServeThreads, percentile(slowdowns, 0.5), slowdowns.size(),
        kGaugeWindow));
    res.report.push_back(line(
        "  @ %.0f qps (reference, benchmark loop, service in CPU time over "
        "the slowdown): %zu "
        "traces of ~%zu queries (%zu samples beyond p95 in each), median "
        "over traces: serve_p50_ms %.3f, p95 %.3f; serve_p99_ms "
        "%.3f over all %zu queries (%zu beyond)",
        kReference.qps, ref_p50.size(), ref_n, samplesBeyond(ref_n, 0.95),
        serve_p50, serve_p95, serve_p99, all_latency_ms.size(),
        samplesBeyond(all_latency_ms.size(), 0.99)));

    auto reportSetup = [&] {
        res.report.push_back(line(
            "  setup_s %.4f s (median of %zu engine set-ups, thread CPU "
            "time over the slowdown)", percentile(setup_s, 0.5),
            setup_s.size()));
    };
    if (opt.trace) {
        reportSetup();
        const uint64_t seed = traceSeed(opt.seed, kReferenceStream);
        const auto st = loop(ref_queries, seed, 1.0, spans);
        perLayer(st, ref_queries.size(), spans, res);
        res.values["bench.trace_overhead"] = st.host_s / ref_host_s;
        return res;
    }
    const double served_qps = percentile(capacity, 0.5);

    // The SLA ladder, through InferenceEngine::replay (wall-clocked
    // service times): reported, not gated.
    std::vector<RateOutcome> ladder;
    for (std::size_t i = 0; i < std::size(kLadder); ++i) {
        const std::size_t n = traceQueries(kLadder[i], opt.seconds, 1);
        const uint64_t seed = traceSeed(opt.seed, i);
        serve::ReplayConfig rc;
        rc.data_seed = seed;
        const auto r =
            engine->replay(trace(cfg, kLadder[i].qps, n, seed), rc);
        ladder.push_back(outcome(kLadder[i].qps, n, r));
    }
    reportSetup();
    for (const auto& o : ladder)
        res.report.push_back(line(
            "  replay @ %.0f qps: %zu offered, %zu on time, %zu late, %zu "
            "evicted, drain %.2f ms -> %s",
            o.rate_qps, o.offered, o.on_time, o.late, o.evicted,
            o.drain_s * 1e3, meetsSla(o) ? "meets SLA" : "misses SLA"));
    res.report.push_back(line(
        "  serve_qps_at_sla %.0f 1/s (%.2f queries/s within SLA at that "
        "rate); capacity: %.2f queries/s served at %.0f qps offered "
        "(benchmark loop, median of %zu traces)",
        qpsAtSla(ladder), goodputAtSla(ladder), served_qps, kCapacity.qps,
        capacity.size()));
    res.values["throughput_per_s"] = served_qps;
    res.values["latency_ms_p50"] = serve_p50;
    res.values["latency_ms_tail"] = serve_p95;
    res.values["setup_s"] = percentile(setup_s, 0.5);
    return res;
}

} // namespace perfbench
