/**
 * @file
 * Tests for train::GraphExecutor, the dependency-aware step executor:
 * its wavefront schedule must cover every executable node exactly once,
 * and a training run through it must stay bitwise-identical to the
 * serial Dlrm::forwardBackward walk at every thread-pool size — losses
 * per step and final dense parameters alike. The equivalence is the whole
 * contract: inter-op parallelism is only admissible because it cannot
 * change a single bit of the result.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cost/iteration_model.h"
#include "data/dataset.h"
#include "graph/step_graph.h"
#include "model/dlrm.h"
#include "nn/embedding_bag.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "obs/drift.h"
#include "obs/flight_recorder.h"
#include "obs/trace.h"
#include "tensor/simd.h"
#include "train/step_runner.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace recsim::train {
namespace {

/** Model zoo exercising uniform tables, mixed dims, and tiny shapes. */
std::vector<model::DlrmConfig>
modelZoo()
{
    std::vector<model::DlrmConfig> zoo;
    zoo.push_back(model::DlrmConfig::tinyReplica(8, 13, 2000, 16));
    zoo.push_back(model::DlrmConfig::tinyReplica(4, 8, 500, 8));
    // Mixed dimensions add proj.t* nodes (emb -> proj chains).
    auto m = model::DlrmConfig::tinyReplica(8, 13, 2000, 16);
    for (std::size_t f = 0; f < m.sparse.size(); ++f)
        m.sparse[f].mean_length = 0.5 + static_cast<double>(f);
    zoo.push_back(model::applyMixedDimensions(m, 0.5, 4));
    return zoo;
}

data::DatasetConfig
datasetFor(const model::DlrmConfig& m)
{
    data::DatasetConfig cfg;
    cfg.num_dense = m.num_dense;
    cfg.sparse = m.sparse;
    cfg.seed = 7;
    return cfg;
}

bool
bitwiseEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/** Bitwise comparison of every dense parameter tensor. */
void
expectParamsBitwiseEqual(model::Dlrm& a, model::Dlrm& b,
                         const std::string& context)
{
    auto pa = a.denseParams();
    auto pb = b.denseParams();
    ASSERT_EQ(pa.size(), pb.size()) << context;
    for (std::size_t i = 0; i < pa.size(); ++i) {
        ASSERT_EQ(pa[i]->size(), pb[i]->size()) << context;
        EXPECT_EQ(std::memcmp(pa[i]->data(), pb[i]->data(),
                              pa[i]->size() * sizeof(float)),
                  0)
            << context << " tensor " << i;
    }
}

/**
 * Train @p steps via Dlrm::forwardBackward and via the executor on
 * same-seed models with identical batches, applying SGD each step, and
 * require bitwise-equal losses and final parameters.
 */
void
checkSerialEquivalence(const model::DlrmConfig& cfg,
                       const GraphExecutor& executor,
                       std::size_t threads)
{
    auto& pool = util::globalThreadPool();
    pool.resize(threads);
    const std::string context =
        cfg.name + " @" + std::to_string(threads) + "t";

    model::Dlrm serial_model(cfg, 3);
    model::Dlrm exec_model(cfg, 3);
    data::SyntheticCtrDataset ds(datasetFor(cfg));
    const nn::Sgd sgd(0.05f);
    for (std::size_t step = 0; step < 5; ++step) {
        const auto batch = ds.nextBatch(32);
        const double a = serial_model.forwardBackward(batch);
        const double b = executor.runStep(exec_model, batch);
        EXPECT_TRUE(bitwiseEqual(a, b))
            << context << " step " << step << ": " << a << " vs " << b;
        serial_model.step(sgd);
        exec_model.step(sgd);
    }
    expectParamsBitwiseEqual(serial_model, exec_model, context);
    pool.resize(1);
}

TEST(GraphExecutor, BitwiseEqualToSerialWalkAcrossThreadCounts)
{
    for (const auto& cfg : modelZoo()) {
        const auto graph = graph::buildModelStepGraph(cfg);
        const GraphExecutor executor(graph);
        for (const std::size_t threads : {1u, 2u, 8u})
            checkSerialEquivalence(cfg, executor, threads);
    }
}

/**
 * Bitwise comparison of accumulated gradients: every MLP layer's
 * dW/db plus the per-table sparse grads (rows and values).
 */
void
expectGradsBitwiseEqual(model::Dlrm& a, model::Dlrm& b,
                        const std::string& context)
{
    auto cmp_mlp = [&](nn::Mlp& ma, nn::Mlp& mb, const char* which) {
        ASSERT_EQ(ma.layers().size(), mb.layers().size()) << context;
        for (std::size_t l = 0; l < ma.layers().size(); ++l) {
            nn::Linear& x = ma.layers()[l];
            nn::Linear& y = mb.layers()[l];
            ASSERT_EQ(x.gradWeight.size(), y.gradWeight.size());
            EXPECT_EQ(std::memcmp(x.gradWeight.data(),
                                  y.gradWeight.data(),
                                  x.gradWeight.size() * sizeof(float)),
                      0)
                << context << " " << which << " l" << l << " dW";
            EXPECT_EQ(std::memcmp(x.gradBias.data(), y.gradBias.data(),
                                  x.gradBias.size() * sizeof(float)),
                      0)
                << context << " " << which << " l" << l << " db";
        }
    };
    cmp_mlp(a.bottomMlp(), b.bottomMlp(), "bottom");
    cmp_mlp(a.topMlp(), b.topMlp(), "top");

    const auto& sa = a.sparseGrads();
    const auto& sb = b.sparseGrads();
    ASSERT_EQ(sa.size(), sb.size()) << context;
    for (std::size_t t = 0; t < sa.size(); ++t) {
        ASSERT_EQ(sa[t].rows, sb[t].rows) << context << " table " << t;
        ASSERT_EQ(sa[t].values.size(), sb[t].values.size());
        EXPECT_EQ(std::memcmp(sa[t].values.data(), sb[t].values.data(),
                              sa[t].values.size() * sizeof(float)),
                  0)
            << context << " table " << t << " values";
    }
}

TEST(GraphExecutor, FusedBackwardGradsBitwiseEqualToUnfused)
{
    // Pre-optimizer gradient state after one fused step — dense dW/db
    // and sparse grads alike — must carry the exact bits of the
    // unfused serial walk at every thread count. Stricter than the
    // post-SGD parameter check: nothing can hide in the update.
    auto& pool = util::globalThreadPool();
    for (const auto& cfg : modelZoo()) {
        auto fused_graph = graph::buildModelStepGraph(cfg);
        graph::fusePass(fused_graph);
        const GraphExecutor executor(fused_graph);

        for (const std::size_t threads : {1u, 2u, 8u}) {
            pool.resize(threads);
            const std::string context = cfg.name + " grads @" +
                std::to_string(threads) + "t";
            model::Dlrm unfused_model(cfg, 3);
            model::Dlrm fused_serial(cfg, 3);
            model::Dlrm fused_exec(cfg, 3);
            data::SyntheticCtrDataset ds(datasetFor(cfg));
            const auto batch = ds.nextBatch(32);
            const double a = unfused_model.forwardBackward(batch);
            const double b =
                runGraphStep(fused_serial, batch, fused_graph);
            const double c = executor.runStep(fused_exec, batch);
            EXPECT_TRUE(bitwiseEqual(a, b)) << context << " serial";
            EXPECT_TRUE(bitwiseEqual(a, c)) << context << " executor";
            expectGradsBitwiseEqual(unfused_model, fused_serial,
                                    context + " serial");
            expectGradsBitwiseEqual(unfused_model, fused_exec,
                                    context + " executor");
            pool.resize(1);
        }
    }
}

TEST(GraphExecutor, FusedGraphBitwiseEqualToUnfusedSerialWalk)
{
    // fusePass rewrites the IR (epilogue-fused GEMMs, grouped
    // lookups); execution through the fused graph — serial walk and
    // wavefront executor alike — must stay bit-identical to the
    // unfused serial walk at every thread count. This is the whole
    // license for the fusion pass.
    auto& pool = util::globalThreadPool();
    for (const auto& cfg : modelZoo()) {
        auto fused_graph = graph::buildModelStepGraph(cfg);
        graph::fusePass(fused_graph);
        ASSERT_NE(fused_graph.find("emb.grouped.g0"), nullptr);
        const GraphExecutor executor(fused_graph);

        for (const std::size_t threads : {1u, 2u, 8u}) {
            pool.resize(threads);
            const std::string context = cfg.name + " fused @" +
                std::to_string(threads) + "t";
            model::Dlrm unfused_model(cfg, 3);
            model::Dlrm fused_serial(cfg, 3);
            model::Dlrm fused_exec(cfg, 3);
            data::SyntheticCtrDataset ds(datasetFor(cfg));
            const nn::Sgd sgd(0.05f);
            for (std::size_t step = 0; step < 5; ++step) {
                const auto batch = ds.nextBatch(32);
                const double a = unfused_model.forwardBackward(batch);
                const double b =
                    runGraphStep(fused_serial, batch, fused_graph);
                const double c = executor.runStep(fused_exec, batch);
                EXPECT_TRUE(bitwiseEqual(a, b))
                    << context << " serial step " << step;
                EXPECT_TRUE(bitwiseEqual(a, c))
                    << context << " executor step " << step;
                unfused_model.step(sgd);
                fused_serial.step(sgd);
                fused_exec.step(sgd);
            }
            expectParamsBitwiseEqual(unfused_model, fused_serial,
                                     context + " serial");
            expectParamsBitwiseEqual(unfused_model, fused_exec,
                                     context + " executor");
            pool.resize(1);
        }
    }
}

TEST(GraphExecutor, BoundGraphSchedulesLikeComputeSkeleton)
{
    // A placement-bound graph carries Comm/Loss/Optimizer nodes the
    // executor must look through; the result must still match
    // Dlrm::forwardBackward.
    const auto cfg = model::DlrmConfig::tinyReplica(8, 13, 2000, 16);
    const auto sys = cost::SystemConfig::cpuSetup(2, 3, 1, 200, 1);
    const cost::IterationModel im(cfg, sys);
    const auto& bound = im.stepGraph();
    ASSERT_NE(bound.findComm(graph::CommOp::PsRequest), nullptr);

    const GraphExecutor executor(bound);
    for (const std::size_t threads : {1u, 8u})
        checkSerialEquivalence(cfg, executor, threads);
}

TEST(GraphExecutor, ForwardSubgraphMatchesTrainingForwardBitwise)
{
    // The serving contract: the pruned forward StepGraph, run through
    // runForward on the executor, must produce logits memcmp-equal to
    // the forward half of the serial training walk — on plain and
    // mixed-dim models, at 1/2/8 threads.
    auto& pool = util::globalThreadPool();
    for (const auto& cfg : modelZoo()) {
        const auto training = graph::buildModelStepGraph(cfg);
        const auto serving = graph::forwardSubgraph(training);
        const GraphExecutor executor(serving);
        data::SyntheticCtrDataset ds(datasetFor(cfg));
        for (std::size_t step = 0; step < 3; ++step) {
            const auto batch = ds.nextBatch(32);

            // Serial reference: Dlrm::forward, the forward half of
            // the unfused walk.
            model::Dlrm ref_model(cfg, 3);
            tensor::Tensor ref_logits;
            ref_model.forward(batch, ref_logits);

            for (const std::size_t threads : {1u, 2u, 8u}) {
                pool.resize(threads);
                model::Dlrm serve_model(cfg, 3);
                executor.runForward(serve_model, batch);
                const auto& logits = serve_model.logits();
                ASSERT_EQ(logits.size(), ref_logits.size());
                EXPECT_EQ(std::memcmp(logits.data(), ref_logits.data(),
                                      logits.size() * sizeof(float)),
                          0)
                    << cfg.name << " step " << step << " @" << threads
                    << "t: serving forward diverged from training "
                       "forward";
            }
        }
    }
    pool.resize(1);
}

TEST(GraphExecutor, FusedStepBitwiseEqualAcrossSimdTiers)
{
    // One fused step must give the same loss and the same parameters,
    // dense and embedding, at every SIMD tier this CPU has. Two models:
    //  - a Section V test-suite model: every GEMM entry point
    //    (bias/ReLU epilogues, dReLU-masked dgrad, fused bias grad,
    //    segmented interaction flatten) plus the elementwise kernels;
    //  - a sparse-heavy model: 12 Mean-pooled tables of width 36 (a
    //    masked tail at both vector widths) feeding the dot
    //    interaction, so the sparse kernels — gather/pool, gradient
    //    accumulate, pairwise dots and their scatter — carry the step.
    // Each is stepped by Adagrad and by Sgd. Batch 37 leaves row tails
    // for the 8- and 6-row register tiles.
    namespace simd = tensor::simd;
    auto& pool = util::globalThreadPool();
    pool.resize(4);
    auto sparse_heavy = model::DlrmConfig::testSuite(16, 12, 300, 32, 2);
    sparse_heavy.emb_dim = 36;
    // Dlrm builds Sum-pooled tables; swap in Mean-pooled ones.
    auto make = [&sparse_heavy](const model::DlrmConfig& cfg) {
        auto m = std::make_unique<model::Dlrm>(cfg, 3);
        if (cfg.name == sparse_heavy.name) {
            util::Rng rng(5);
            for (auto& t : m->tables())
                t = nn::EmbeddingBag(t.hashSize(), t.dim(), rng,
                                     nn::Pooling::Mean);
        }
        return m;
    };
    for (const auto& cfg :
         {model::DlrmConfig::testSuite(64, 4, 1000, 64, 3), sparse_heavy}) {
        auto fused_graph = graph::buildModelStepGraph(cfg);
        graph::fusePass(fused_graph);
        const GraphExecutor executor(fused_graph);
        data::SyntheticCtrDataset ds(datasetFor(cfg));
        const auto batch = ds.nextBatch(37);

        for (const bool adagrad : {true, false}) {
            auto run = [&](simd::Tier tier, model::Dlrm& m) {
                simd::ScopedTierOverride force(tier);
                const double loss = executor.runStep(m, batch);
                if (adagrad) {
                    nn::Adagrad opt(0.01f);
                    m.step(opt);
                } else {
                    m.step(nn::Sgd(0.01f));
                }
                return loss;
            };
            auto ref_model = make(cfg);
            model::Dlrm& reference = *ref_model;
            const double want = run(simd::Tier::kScalar, reference);
            for (int t = 1; t <= static_cast<int>(simd::supportedTier());
                 ++t) {
                const auto tier = static_cast<simd::Tier>(t);
                const std::string context = cfg.name + " " +
                    (adagrad ? "adagrad " : "sgd ") + simd::tierName(tier);
                auto model = make(cfg);
                model::Dlrm& m = *model;
                EXPECT_TRUE(bitwiseEqual(run(tier, m), want)) << context;
                expectParamsBitwiseEqual(reference, m, context);
                for (std::size_t f = 0; f < m.tables().size(); ++f) {
                    const tensor::Tensor& got = m.tables()[f].table;
                    const tensor::Tensor& ref = reference.tables()[f].table;
                    ASSERT_EQ(got.size(), ref.size()) << context;
                    EXPECT_EQ(std::memcmp(got.data(), ref.data(),
                                          got.size() * sizeof(float)),
                              0)
                        << context << " table " << f;
                }
            }
        }
    }
    pool.resize(1);
}

TEST(GraphExecutor, RunForwardOnFullGraphMatchesPrunedGraph)
{
    // Pruning only drops nodes the schedule looks through, so the
    // full training graph and its forward subgraph must yield the
    // same forward waves — and the same bits.
    const auto cfg = model::DlrmConfig::tinyReplica(8, 13, 2000, 16);
    const auto training = graph::buildModelStepGraph(cfg);
    const auto serving = graph::forwardSubgraph(training);
    const GraphExecutor full(training);
    const GraphExecutor pruned(serving);
    ASSERT_EQ(full.forwardWaves().size(), pruned.forwardWaves().size());
    for (std::size_t w = 0; w < full.forwardWaves().size(); ++w)
        EXPECT_EQ(full.forwardWaves()[w].size(),
                  pruned.forwardWaves()[w].size());

    data::SyntheticCtrDataset ds(datasetFor(cfg));
    const auto batch = ds.nextBatch(16);
    model::Dlrm a(cfg, 3), b(cfg, 3);
    full.runForward(a, batch);
    pruned.runForward(b, batch);
    ASSERT_EQ(a.logits().size(), b.logits().size());
    EXPECT_EQ(std::memcmp(a.logits().data(), b.logits().data(),
                          a.logits().size() * sizeof(float)),
              0);
}

TEST(GraphExecutor, WavesCoverEachExecutableNodeExactlyOnce)
{
    const auto cfg = model::DlrmConfig::tinyReplica(8, 13, 2000, 16);
    const auto sys = cost::SystemConfig::cpuSetup(2, 3, 1, 200, 1);
    const cost::IterationModel im(cfg, sys);
    const auto& g = im.stepGraph();
    const GraphExecutor executor(g);

    std::set<std::size_t> executable;
    for (std::size_t i = 0; i < g.numNodes(); ++i) {
        const auto& node = g.nodes[i];
        if (node.kind == graph::NodeKind::Gemm ||
            node.kind == graph::NodeKind::EmbeddingLookup ||
            node.kind == graph::NodeKind::Interaction)
            executable.insert(i);
    }
    ASSERT_FALSE(executable.empty());

    for (const auto* waves :
         {&executor.forwardWaves(), &executor.backwardWaves()}) {
        std::set<std::size_t> seen;
        for (const auto& wave : *waves) {
            EXPECT_FALSE(wave.empty());
            for (std::size_t i : wave) {
                EXPECT_TRUE(seen.insert(i).second)
                    << "node " << g.nodes[i].id << " scheduled twice";
            }
        }
        EXPECT_EQ(seen, executable);
    }
}

TEST(GraphExecutor, ForwardWavesRespectDependencies)
{
    // Every effective predecessor of a node must sit in an earlier
    // wave: within the model graph the deps are all executable, so the
    // raw edges already must be honored.
    const auto cfg = model::DlrmConfig::tinyReplica(8, 13, 2000, 16);
    const auto g = graph::buildModelStepGraph(cfg);
    const GraphExecutor executor(g);

    std::vector<std::size_t> wave_of(g.numNodes(), 0);
    for (std::size_t w = 0; w < executor.forwardWaves().size(); ++w) {
        for (std::size_t i : executor.forwardWaves()[w])
            wave_of[i] = w;
    }
    for (const auto& wave : executor.forwardWaves()) {
        for (std::size_t i : wave) {
            for (std::size_t d : g.nodes[i].deps) {
                if (g.nodes[d].kind == graph::NodeKind::Gemm ||
                    g.nodes[d].kind ==
                        graph::NodeKind::EmbeddingLookup ||
                    g.nodes[d].kind == graph::NodeKind::Interaction) {
                    EXPECT_LT(wave_of[d], wave_of[i])
                        << g.nodes[d].id << " !< " << g.nodes[i].id;
                }
            }
        }
    }
}

TEST(GraphExecutorDeathTest, GraphNamingTablesTheModelLacksPanics)
{
    // Same emb_dim and num_dense, two more tables: the graph's
    // emb.t4 / emb.t5 nodes name tables the model does not have.
    util::globalThreadPool().resize(1);
    const auto cfg = model::DlrmConfig::tinyReplica(4, 8, 500, 8);
    auto wider = cfg;
    wider.sparse.push_back(cfg.sparse.back());
    wider.sparse.push_back(cfg.sparse.back());
    const auto graph = graph::buildModelStepGraph(wider);
    const GraphExecutor executor(graph);
    model::Dlrm model(cfg, 3);
    data::SyntheticCtrDataset ds(datasetFor(cfg));
    const auto batch = ds.nextBatch(16);
    EXPECT_DEATH(executor.runStep(model, batch),
                 "StepGraph node emb.t4 does not match model");
}

TEST(GraphExecutorDeathTest, BatchWithTooFewSparseFeaturesPanics)
{
    // A batch carrying 2 sparse features for a 4-table model, through
    // the training step and through the serving forward.
    util::globalThreadPool().resize(1);
    const auto cfg = model::DlrmConfig::tinyReplica(4, 8, 500, 8);
    const auto graph = graph::buildModelStepGraph(cfg);
    const GraphExecutor executor(graph);
    model::Dlrm model(cfg, 3);
    data::SyntheticCtrDataset ds(
        datasetFor(model::DlrmConfig::tinyReplica(2, 8, 500, 8)));
    const auto batch = ds.nextBatch(16);
    EXPECT_DEATH(executor.runStep(model, batch),
                 "batch has 2 sparse features, model expects 4");
    EXPECT_DEATH(executor.runForward(model, batch),
                 "batch has 2 sparse features, model expects 4");
}

#ifndef RECSIM_OBS_DISABLED
bool
executable(const graph::Node& node)
{
    return node.kind == graph::NodeKind::Gemm ||
        node.kind == graph::NodeKind::EmbeddingLookup ||
        node.kind == graph::NodeKind::Interaction;
}

TEST(GraphExecutor, SerialStepsTagDistinctStepsForDriftMonitor)
{
    // runGraphStep builds a fresh executor per call; the recorder
    // samples of consecutive calls must still carry distinct step
    // tags, so the drift monitor folds each node's forward and
    // backward visits into one total per node per step.
    util::globalThreadPool().resize(1);
    const auto cfg = model::DlrmConfig::tinyReplica(4, 8, 500, 8);
    const auto graph = graph::buildModelStepGraph(cfg);
    model::Dlrm model(cfg, 3);
    data::SyntheticCtrDataset ds(datasetFor(cfg));
    auto& rec = obs::FlightRecorder::global();
    rec.configure(1 << 14);
    rec.setEnabled(true);
    constexpr std::size_t kSteps = 2;
    for (std::size_t step = 0; step < kSteps; ++step) {
        runGraphStep(model, ds.nextBatch(16), graph);
        model.zeroGrad();
    }
    rec.setEnabled(false);
    const auto samples = rec.snapshot();
    const auto names = rec.channels();

    std::map<std::string, std::map<uint64_t, int>> visits;
    for (const auto& sample : samples)
        ++visits[names[sample.channel]][sample.step];
    std::map<std::string, double> predicted;
    for (const auto& node : graph.nodes) {
        if (!executable(node))
            continue;
        predicted[node.id] = 1e-3;
        const auto& tags = visits[node.id];
        EXPECT_EQ(tags.size(), kSteps) << node.id;
        for (const auto& [tag, count] : tags)
            EXPECT_EQ(count, 2) << node.id << " step " << tag;
    }

    obs::DriftMonitor monitor(predicted);
    monitor.ingest(rec, samples);
    const obs::DriftReport report = monitor.report();
    ASSERT_EQ(report.nodes.size(), predicted.size());
    for (const auto& node : report.nodes)
        EXPECT_EQ(node.samples, kSteps) << node.node_id;
    rec.reset();
}

/** Names of every wall-clock span the tracer holds. */
std::set<std::string>
spanNames()
{
    std::set<std::string> names;
    for (const auto& track : obs::Tracer::global().snapshot()) {
        if (track.simulated)
            continue;
        for (const auto& span : track.spans)
            names.insert(span.name);
    }
    return names;
}

TEST(GraphExecutor, SerialAndParallelStepsEmitTheSameSpans)
{
    // runGraphStep is the executor on a 1-thread pool: it must trace
    // the same per-node spans as the executor on a wide pool, plus the
    // step's model.fwd / loss / model.bwd phases.
    const auto cfg = model::applyMixedDimensions(
        model::DlrmConfig::tinyReplica(8, 13, 2000, 16), 0.5, 4);
    auto graph = graph::buildModelStepGraph(cfg);
    graph::fusePass(graph);
    data::SyntheticCtrDataset ds(datasetFor(cfg));
    const auto batch = ds.nextBatch(32);
    auto& tracer = obs::Tracer::global();
    auto traced = [&](auto&& step) {
        model::Dlrm model(cfg, 3);
        tracer.reset();
        tracer.setEnabled(true);
        step(model);
        tracer.setEnabled(false);
        EXPECT_EQ(tracer.numOpenSpans(), 0u);
        const auto names = spanNames();
        tracer.reset();
        return names;
    };

    util::globalThreadPool().resize(1);
    const auto serial = traced(
        [&](model::Dlrm& m) { runGraphStep(m, batch, graph); });
    util::globalThreadPool().resize(4);
    const GraphExecutor executor(graph);
    const auto parallel =
        traced([&](model::Dlrm& m) { executor.runStep(m, batch); });
    util::globalThreadPool().resize(1);

    EXPECT_EQ(serial, parallel);
    for (const char* phase : {"model.fwd", "loss", "model.bwd"})
        EXPECT_EQ(serial.count(phase), 1u) << phase;
    for (const auto& node : graph.nodes) {
        if (executable(node)) {
            EXPECT_EQ(serial.count(node.id), 1u) << node.id;
        }
    }
}
#endif  // RECSIM_OBS_DISABLED

} // namespace
} // namespace recsim::train
