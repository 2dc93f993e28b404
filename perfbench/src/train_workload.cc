/**
 * @file
 * train_dense and train_sparse: the per-step loop of
 * train::trainSingleThread (epochBatch -> GraphExecutor::runStep ->
 * Dlrm::step with Adagrad, fused graph) on a dense-dominant and an
 * embedding-dominant model, with a 1-thread runGraphStep reference for
 * the loss check. The traced run alternates executor steps with a walk
 * of the same graph through Dlrm's public stepwise primitives, which
 * splits the step into node classes.
 *
 * A step is timed by the CPU time of the whole process, all pool
 * threads summed, over the host gauge's slowdown. Its wall time on a
 * shared 4-core host measured how many cores the hypervisor gave the
 * four threads at that moment (about 1.5 of them in a spin test) more
 * than the program: background load doubled it while the CPU time
 * moved by under 5%.
 */
#include <cmath>
#include <cstring>
#include <memory>

#include "data/dataset.h"
#include "graph/step_graph.h"
#include "model/config.h"
#include "model/dlrm.h"
#include "nn/optimizer.h"
#include "obs/pool_metrics.h"
#include "train/step_runner.h"
#include "train/trainer.h"
#include "util/thread_pool.h"
#include "gauge.h"
#include "workload.h"

namespace perfbench {

using namespace recsim;

namespace {

struct Shape
{
    model::DlrmConfig model;
    std::size_t batch = 0;
    /** Distinct training batches; epochBatch wraps over them. */
    std::size_t batches = 0;
    std::size_t eval_examples = 0;
    /** Set-ups per run; setup_s is their median. */
    std::size_t setups = 0;
};

/** Section V test-suite model: wide MLPs, small tables. */
Shape
denseShape()
{
    Shape s;
    s.model = model::DlrmConfig::testSuite(512, 8, 20000, 512, 3);
    s.model.name = "train_dense";
    s.batch = 512;
    s.batches = 16;
    s.eval_examples = 4096;
    s.setups = 7;
    return s;
}

/**
 * M3-like embedding-dominant model: 26 tables of 160k x 64 FP32
 * (1.07 GB, several times the host's last-level cache), ~20 Zipf-1.05
 * lookups per table, 64-wide MLPs.
 */
Shape
sparseShape()
{
    Shape s;
    s.model.name = "train_sparse";
    s.model.num_dense = 64;
    s.model.emb_dim = 64;
    s.model.bottom_mlp = {64, 64};
    s.model.top_mlp = {64, 64};
    for (int i = 0; i < 26; ++i) {
        data::SparseFeatureSpec spec;
        spec.name = "sparse_" + std::to_string(i);
        spec.hash_size = 160000;
        spec.mean_length = 20.0;
        spec.zipf_exponent = 1.05;
        spec.truncation = 64;
        s.model.sparse.push_back(spec);
    }
    s.batch = 256;
    s.batches = 32;
    s.eval_examples = 2048;
    s.setups = 3;
    return s;
}

/**
 * Adagrad step size. TrainConfig's default of 0.1 is tuned for the
 * tiny replicas and drives the 512-wide test-suite model to an NE in
 * the hundreds within one epoch; 0.01 keeps both models below NE 1.
 */
constexpr float kLearningRate = 0.01f;

/** What train::trainSingleThread builds before its first step. */
struct Trainer
{
    Trainer(const model::DlrmConfig& cfg, uint64_t seed)
        : model(cfg, seed), graph(graph::buildModelStepGraph(cfg)),
          adagrad(kLearningRate)
    {
        graph::fusePass(graph);
        executor = std::make_unique<train::GraphExecutor>(graph);
    }

    model::Dlrm model;
    graph::StepGraph graph;
    std::unique_ptr<train::GraphExecutor> executor;
    nn::Adagrad adagrad;
};

/**
 * Build a Trainer and record its set-up time: the CPU time of the
 * whole process, so that steal and preemption on a shared host stay
 * out of it while work the set-up hands to the pool stays in, over
 * the median of three host gauge samples taken just before.
 */
std::unique_ptr<Trainer>
timedSetup(const model::DlrmConfig& cfg, uint64_t seed,
           std::vector<double>& setup_s)
{
    const double slowdown =
        percentile({hostSlowdown(), hostSlowdown(), hostSlowdown()}, 0.5);
    const double t0 = processCpuSeconds();
    auto t = std::make_unique<Trainer>(cfg, seed);
    setup_s.push_back((processCpuSeconds() - t0) / slowdown);
    return t;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/**
 * One forward + loss + backward through Dlrm's public stepwise
 * primitives in graph order, each call inside a span named after its
 * node class. Dispatch mirrors train::runGraphStep.
 */
double
walkStep(model::Dlrm& m, const data::MiniBatch& b,
         const graph::StepGraph& g, SpanRecorder& spans)
{
    using graph::GemmRole;
    using graph::NodeKind;
    const auto lookups = static_cast<uint64_t>(b.totalLookups());
    for (const auto& n : g.nodes) {
        const auto layer = static_cast<std::size_t>(n.layer);
        const auto table = static_cast<std::size_t>(n.table);
        if (n.kind == NodeKind::Gemm) {
            Span s(spans, "nn.mlp_fwd", b.batchSize());
            if (n.role == GemmRole::Projection)
                m.forwardProjection(table, n.fused_epilogue);
            else if (n.role == GemmRole::BottomMlp)
                m.forwardBottomLayer(layer, b, n.fused_epilogue);
            else
                m.forwardTopLayer(layer, n.fused_epilogue);
        } else if (n.kind == NodeKind::EmbeddingLookup) {
            Span s(spans, "nn.emb_fwd", lookups);
            if (!n.fused_tables.empty())
                m.forwardEmbeddingGroup(n.fused_tables, b);
            else
                m.forwardEmbedding(table, b);
        } else if (n.kind == NodeKind::Interaction) {
            Span s(spans, "nn.interaction_fwd", b.batchSize());
            m.forwardInteraction();
        }
    }
    double loss = 0.0;
    {
        Span s(spans, "nn.loss", b.batchSize());
        loss = m.lossBackward(b);
    }
    for (std::size_t i = g.nodes.size(); i-- > 0;) {
        const auto& n = g.nodes[i];
        const auto layer = static_cast<std::size_t>(n.layer);
        const auto table = static_cast<std::size_t>(n.table);
        if (n.kind == NodeKind::Gemm) {
            Span s(spans, "nn.mlp_bwd", b.batchSize());
            if (n.role == GemmRole::Projection)
                m.backwardProjection(table, n.fused_backward);
            else if (n.role == GemmRole::BottomMlp)
                m.backwardBottomLayer(layer, b, n.fused_backward);
            else
                m.backwardTopLayer(layer, n.fused_backward,
                                   n.fused_flatten);
        } else if (n.kind == NodeKind::EmbeddingLookup) {
            Span s(spans, "nn.emb_bwd", lookups);
            if (!n.fused_tables.empty())
                m.backwardEmbeddingGroup(n.fused_tables, b);
            else
                m.backwardEmbedding(table, b);
        } else if (n.kind == NodeKind::Interaction) {
            Span s(spans, "nn.interaction_bwd", b.batchSize());
            m.backwardInteraction(n.fused_flatten);
        }
    }
    return loss;
}

/** GEMM FLOPs of one training step: forward plus a 2x backward. */
double
gemmFlopsPerStep(const graph::StepGraph& g, std::size_t batch)
{
    double fwd = 0.0;
    for (const auto& n : g.nodes)
        if (n.kind == graph::NodeKind::Gemm)
            fwd += n.fwd_flops;
    return 3.0 * fwd * static_cast<double>(batch);
}

double
mean(const std::vector<double>& v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

} // namespace

WorkloadResult
runTrain(const RunOptions& opt, bool sparse, SpanRecorder& spans)
{
    WorkloadResult res;
    auto& pool = util::globalThreadPool();
    pool.resize(kThreads);
    const Shape shape = sparse ? sparseShape() : denseShape();
    const std::size_t B = shape.batch;
    const auto& cfg = shape.model;

    data::DatasetConfig dc;
    dc.num_dense = cfg.num_dense;
    dc.sparse = cfg.sparse;
    dc.seed = opt.seed;
    data::SyntheticCtrDataset ds(dc);
    const double gen_t0 = nowSeconds();
    ds.materialize(shape.batches * B + shape.eval_examples);
    const double gen_s = nowSeconds() - gen_t0;
    auto batchAt = [&](std::size_t step) {
        return ds.epochBatch((step % shape.batches) * B, B);
    };

    // Reference: the first steps walked serially on a 1-thread pool.
    constexpr std::size_t kCheckSteps = 3;
    std::vector<double> setup_s;
    std::vector<double> ref_loss;
    double serial_step_s = 0.0;
    {
        auto ref = timedSetup(cfg, opt.seed, setup_s);
        pool.resize(1);
        const std::size_t steps = opt.trace ? kCheckSteps + 5 : kCheckSteps;
        std::vector<double> times;
        for (std::size_t k = 0; k < steps; ++k) {
            const double t0 = nowSeconds();
            const auto batch = batchAt(k);
            const double loss =
                train::runGraphStep(ref->model, batch, ref->graph);
            ref->model.step(ref->adagrad);
            times.push_back(nowSeconds() - t0);
            if (k < kCheckSteps)
                ref_loss.push_back(loss);
        }
        times.erase(times.begin(), times.begin() + kCheckSteps);
        serial_step_s = percentile(times, 0.5);
        pool.resize(kThreads);
    }
    while (setup_s.size() + 1 < shape.setups)
        timedSetup(cfg, opt.seed, setup_s);
    auto tr = timedSetup(cfg, opt.seed, setup_s);
    auto& model = tr->model;
    const auto& exec = *tr->executor;

    std::size_t step = 0;
    for (; step < kCheckSteps; ++step) {
        const double loss = exec.runStep(model, batchAt(step));
        model.step(tr->adagrad);
        res.ops.check(sameBits(loss, ref_loss[step]) && std::isfinite(loss),
                      line("step %zu loss %.17g on %zu threads != %.17g "
                           "serial", step, loss, kThreads,
                           ref_loss[step]));
    }

    // The timed loop: data, fused executor step, optimizer, timed by
    // wall clock (for the spans) and process CPU time. The held-out NE is taken after exactly one epoch, outside the step's
    // timing; the warm-up lasts at least that epoch, so every run
    // evaluates, whatever its length.
    train::TrainResult eval;
    std::vector<double> cpu_ms;
    auto plainStep = [&](std::vector<double>& step_ms) {
        const double t0 = nowSeconds();
        const double c0 = processCpuSeconds();
        const auto batch = batchAt(step++);
        const double loss = exec.runStep(model, batch);
        model.step(tr->adagrad);
        step_ms.push_back((nowSeconds() - t0) * 1e3);
        cpu_ms.push_back((processCpuSeconds() - c0) * 1e3);
        res.ops.check(std::isfinite(loss),
                      line("non-finite loss at step %zu", step));
        if (step == shape.batches) {
            train::evaluateModel(model, ds, shape.eval_examples, eval);
            res.ops.check(std::isfinite(eval.eval_ne) && eval.eval_ne > 0.0,
                          line("eval NE %.17g", eval.eval_ne));
        }
    };
    // Timed steps alternate with gauge samples, one after each
    // kGaugeEverySeconds of steps.
    GaugeLog log;
    auto measure = [&](double seconds, std::vector<double>& step_ms) {
        const double t0 = nowSeconds();
        // Untraced: enough steps that each half of the run supports
        // its own p90. Traced: enough for the chunked p50.
        const std::size_t need = opt.trace
            ? kChunks
            : kTailChunks * samplesForTail(0.9);
        double since_gauge = 0.0;
        while ((nowSeconds() - t0 < seconds || step_ms.size() < need) &&
               nowSeconds() - t0 < 6.0 * seconds + 30.0) {
            log.unit();
            plainStep(step_ms);
            since_gauge += step_ms.back() * 1e-3;
            if (since_gauge >= kGaugeEverySeconds) {
                log.gauge(hostSlowdown());
                since_gauge = 0.0;
            }
        }
    };
    std::vector<double> warm;
    for (const double w0 = nowSeconds();
         nowSeconds() - w0 < kWarmSeconds || step < shape.batches;)
        plainStep(warm);
    cpu_ms.clear();
    std::vector<double> step_ms;
    measure(opt.trace ? opt.seconds / 3.0 : opt.seconds, step_ms);
    const auto slow = log.unitSlowdowns(kGaugeGroups);
    const auto norm_ms = divided(cpu_ms, slow);
    const double step_p50 = chunkPercentile(norm_ms, kChunks, 0.5);
    // The spans are wall clock as measured, so the attribution and the
    // scaling against the serial reference use the raw step.
    const double raw_p50 = chunkPercentile(step_ms, kChunks, 0.5);

    res.report.push_back(line(
        "%s: %s, batch %zu, %zu threads, %zu distinct batches "
        "(generated in %.3f s)",
        cfg.name.c_str(), cfg.summary().c_str(), B, kThreads,
        shape.batches, gen_s));
    res.report.push_back(line(
        "  setup_s %.4f s (median of %zu set-ups, process CPU time over "
        "the one-thread host slowdown)",
        percentile(setup_s, 0.5), setup_s.size()));
    res.report.push_back(line(
        "  host slowdown %.3f (median of %zu gauge samples); wall-clock "
        "step p50 %.3f ms; step times below are process CPU time over "
        "the slowdown",
        percentile(slow, 0.5), log.samples(), raw_p50));

    std::vector<double> trace_step_ms;
    if (opt.trace) {
        // Alternate executor steps (plus a forward-only probe on the
        // same batch) with primitive walks of the same graph; both
        // advance training identically.
        const double t0 = nowSeconds();
        std::vector<double> jobs, tasks;
        double idle_ns = 0.0, exec_ns = 0.0;
        while (nowSeconds() - t0 < 2.0 * opt.seconds / 3.0 ||
               jobs.size() < kChunks) {
            const obs::PoolSnapshot before = obs::snapshotThreadPool();
            const double s0 = nowSeconds();
            data::MiniBatch batch;
            {
                Span root(spans, "train.exec_step", B);
                {
                    Span s(spans, "data.batch", B);
                    batch = batchAt(step++);
                }
                double loss = 0.0;
                {
                    Span s(spans, "train.run_step", B);
                    loss = exec.runStep(model, batch);
                }
                {
                    Span s(spans, "nn.optimizer", B);
                    model.step(tr->adagrad);
                }
                res.ops.check(std::isfinite(loss),
                              line("non-finite loss at step %zu", step));
            }
            const double wall_ns = (nowSeconds() - s0) * 1e9;
            const auto d =
                obs::poolDelta(before, obs::snapshotThreadPool());
            trace_step_ms.push_back(wall_ns * 1e-6);
            jobs.push_back(static_cast<double>(d.jobs));
            tasks.push_back(static_cast<double>(d.tasks));
            idle_ns += static_cast<double>(d.idle_ns);
            exec_ns += wall_ns;
            {
                Span root(spans, "train.fwd_probe", B);
                Span s(spans, "train.run_forward", B);
                exec.runForward(model, batch);
            }
            {
                Span root(spans, "train.walk_step", B);
                {
                    Span s(spans, "data.batch", B);
                    batch = batchAt(step++);
                }
                const double loss =
                    walkStep(model, batch, tr->graph, spans);
                {
                    Span s(spans, "nn.optimizer", B);
                    model.step(tr->adagrad);
                }
                res.ops.check(std::isfinite(loss),
                              line("non-finite loss at step %zu", step));
            }
        }
        auto p50 = [](const std::vector<double>& v) {
            return percentile(v, 0.5);
        };
        auto& v = res.values;
        v["data.batch_ms"] = p50(spans.selfTimesMs("data.batch"));
        v["train.fwd_ms"] = p50(spans.selfTimesMs("train.run_forward"));
        const double run_step = p50(spans.selfTimesMs("train.run_step"));
        v["train.bwd_ms"] = run_step - v["train.fwd_ms"];
        static const char* kClasses[] = {
            "nn.emb_fwd", "nn.emb_bwd", "nn.mlp_fwd", "nn.mlp_bwd",
            "nn.interaction_fwd", "nn.interaction_bwd", "nn.loss"};
        double node_sum = 0.0;
        std::vector<double> walk_total(
            spans.sumPerRootMs("train.walk_step", "nn.loss").size(), 0.0);
        for (const char* c : kClasses) {
            const auto per = spans.sumPerRootMs("train.walk_step", c);
            for (std::size_t i = 0; i < per.size(); ++i)
                walk_total[i] += per[i];
            v[std::string(c) + "_ms"] = p50(per);
            node_sum += p50(per);
        }
        v["nn.optimizer_ms"] = p50(spans.selfTimesMs("nn.optimizer"));
        v["train.exec_speedup"] = p50(walk_total) / run_step;
        v["train.scaling_4t"] = serial_step_s * 1e3 / raw_p50;
        v["pool.jobs_per_step"] = mean(jobs);
        v["pool.tasks_per_step"] = mean(tasks);
        v["pool.idle_share"] =
            idle_ns / (static_cast<double>(kThreads - 1) * exec_ns);
        const double lookups =
            static_cast<double>(spans.totalCount("nn.emb_fwd")) /
            static_cast<double>(
                spans.selfTimesMs("train.walk_step").size());
        v["nn.emb_lookups_per_step"] = lookups;
        v["tensor.gemm_gflops"] = gemmFlopsPerStep(tr->graph, B) /
            ((v["nn.mlp_fwd_ms"] + v["nn.mlp_bwd_ms"]) * 1e6);
        v["nn.emb_gbytes_per_s"] = lookups *
            static_cast<double>(cfg.emb_dim) * 4.0 /
            (v["nn.emb_fwd_ms"] * 1e6);
        v["bench.trace_overhead"] =
            chunkPercentile(trace_step_ms, kChunks, 0.5) / raw_p50;
        const double attributed =
            v["data.batch_ms"] + node_sum + v["nn.optimizer_ms"];
        v["bench.unattributed_ms"] = raw_p50 - attributed;
        v["bench.unattributed_share"] = (raw_p50 - attributed) / raw_p50;

        res.report.push_back(line(
            "  attribution of the raw step_ms_p50 %.3f ms: data %.3f + nodes "
            "%.3f (serial walk) + optimizer %.3f = %.3f; unattributed "
            "residual %.3f ms (%.1f%%); executor overlap x%.3f; pool "
            "idle share %.3f",
            raw_p50, v["data.batch_ms"], node_sum, v["nn.optimizer_ms"],
            attributed, raw_p50 - attributed,
            100.0 * (raw_p50 - attributed) / raw_p50,
            v["train.exec_speedup"], v["pool.idle_share"]));
        res.report.push_back(line(
            "  spans: %zu executor steps, %zu walk steps; gemm_gflops "
            "and emb_gbytes_per_s are computed from layer dims and "
            "lookup counts over measured time",
            trace_step_ms.size(),
            spans.selfTimesMs("train.walk_step").size()));
    }

    std::vector<double> examples(norm_ms.size(), static_cast<double>(B));
    std::vector<double> step_s;
    for (double ms : norm_ms)
        step_s.push_back(ms * 1e-3);
    const double eps = chunkRate(examples, step_s, kChunks);
    const double p90 = chunkPercentile(norm_ms, kTailChunks, 0.9);
    res.report.push_back(line(
        "  %zu timed untraced steps; train_examples_per_s %.1f 1/s, "
        "step_ms_p50 %.3f ms (median of %zu chunks); eval_ne %.6f",
        step_ms.size(), eps, step_p50, kChunks, eval.eval_ne));
    if (opt.trace) {
        res.values["train.eval_ne"] = eval.eval_ne;
    } else {
        res.report.push_back(line(
            "  step_ms_p90 %.3f ms (mean of %zu chunks' p90s, %zu "
            "samples beyond each)",
            p90, kTailChunks,
            samplesBeyond(step_ms.size() / kTailChunks, 0.9)));
        res.values["throughput_per_s"] = eps;
        res.values["latency_ms_p50"] = step_p50;
        res.values["latency_ms_tail"] = p90;
        res.values["setup_s"] = percentile(setup_s, 0.5);
    }
    return res;
}

} // namespace perfbench
