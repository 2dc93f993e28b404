/**
 * @file
 * plan_sweep: the paper's what-if path. One pass runs
 * core::Estimator::estimate, rankPlacements and optimalBatch (plus
 * placement::planPlacement for the setup's own placement) over a fixed
 * grid: the Figs 10-13 test-suite axes and M1-M3 prod, each on the
 * CPU, Big Basin and Zion setups; then sim::runDistSim over a fixed
 * set of DES configurations whose service noise is seeded from
 * --seed. Passes repeat until the run's time is up; every pass must
 * reproduce the first pass's digest bit for bit.
 *
 * All of it runs on the benchmark's thread (the pool has one thread,
 * so any chunk a layer dispatches runs inline), and every figure is
 * timed on that thread's CPU clock: a pass is tens of milliseconds of
 * single-threaded work, and its wall time on a shared host moved by
 * half between runs minutes apart with the host's load. A host gauge
 * sample after every pass, on the same clock, takes out the rest of
 * the host's changes in speed.
 */
#include <cmath>

#include "core/estimator.h"
#include "cost/iteration_model.h"
#include "cost/system_config.h"
#include "model/config.h"
#include "placement/placement.h"
#include "sim/dist_sim.h"
#include "util/thread_pool.h"
#include "gauge.h"
#include "workload.h"

namespace perfbench {

using namespace recsim;
using placement::EmbeddingPlacement;

namespace {

struct Grid
{
    std::vector<model::DlrmConfig> models;
    std::vector<cost::SystemConfig> systems;
    std::vector<sim::DistSimConfig> des;
};

Grid
buildGrid(uint64_t seed)
{
    Grid g;
    // Fig 10: dense x sparse features.
    for (std::size_t d : {64, 256, 1024, 4096})
        for (std::size_t s : {4, 16, 64, 128})
            g.models.push_back(model::DlrmConfig::testSuite(d, s, 100000));
    // Fig 12: hash size.
    for (uint64_t h : {10000, 100000, 1000000, 10000000})
        g.models.push_back(model::DlrmConfig::testSuite(256, 64, h));
    // Fig 13: MLP width^layers.
    for (auto [w, l] : {std::pair<std::size_t, std::size_t>{128, 2},
                        {256, 3}, {512, 3}, {1024, 4}, {2048, 4}})
        g.models.push_back(
            model::DlrmConfig::testSuite(256, 64, 100000, w, l));
    g.models.push_back(model::DlrmConfig::m1Prod());
    g.models.push_back(model::DlrmConfig::m2Prod());
    g.models.push_back(model::DlrmConfig::m3Prod());

    g.systems = {
        cost::SystemConfig::cpuSetup(1, 1, 1, 200, 1),
        cost::SystemConfig::bigBasinSetup(EmbeddingPlacement::GpuMemory,
                                          1600),
        cost::SystemConfig::zionSetup(EmbeddingPlacement::GpuMemory, 1600),
    };

    // The DES validation grid (bench/validation_des_vs_analytical).
    auto des = [&](const model::DlrmConfig& m,
                   const cost::SystemConfig& sys) {
        sim::DistSimConfig cfg;
        cfg.model = m;
        cfg.system = sys;
        cfg.measure_seconds = 0.5;
        cfg.service_noise_sigma = 0.1;
        cfg.seed = seed * 7919 + g.des.size();
        g.des.push_back(cfg);
    };
    for (std::size_t sparse : {8, 32}) {
        const auto m = model::DlrmConfig::testSuite(256, sparse, 100000);
        for (std::size_t trainers : {1, 2, 4})
            des(m, cost::SystemConfig::cpuSetup(trainers, 2, 1, 200, 1));
        des(m, cost::SystemConfig::cpuSetup(2, 2, 1, 200, 4));
        for (auto p : {EmbeddingPlacement::GpuMemory,
                       EmbeddingPlacement::HostMemory,
                       EmbeddingPlacement::RemotePs})
            des(m, cost::SystemConfig::bigBasinSetup(
                       p, 1600, p == EmbeddingPlacement::RemotePs ? 4 : 0));
    }
    const auto m1 = model::DlrmConfig::m1Prod();
    des(m1, cost::SystemConfig::cpuSetup(6, 8, 2, 200, 1));
    des(m1, cost::SystemConfig::bigBasinSetup(EmbeddingPlacement::GpuMemory,
                                              1600));
    return g;
}

/** FNV-1a over the bytes of what a pass produced. */
struct Digest
{
    uint64_t h = 0xcbf29ce484222325ULL;
    void add(const void* p, std::size_t n)
    {
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i)
            h = (h ^ b[i]) * 0x100000001b3ULL;
    }
    void add(double v) { add(&v, sizeof(v)); }
    void add(const std::string& s) { add(s.data(), s.size()); }
};

void
addEstimate(Digest& d, const cost::IterationEstimate& e)
{
    d.add(e.feasible ? 1.0 : 0.0);
    d.add(e.iteration_seconds);
    d.add(e.throughput);
    d.add(e.power_watts);
    d.add(e.bottleneck);
}

bool
sane(const cost::IterationEstimate& e)
{
    return !e.feasible ||
        (std::isfinite(e.throughput) && e.throughput > 0.0 &&
         std::isfinite(e.iteration_seconds) && e.iteration_seconds > 0.0);
}

struct PassStats
{
    uint64_t digest = 0;
    std::size_t estimator_calls = 0;
    double estimator_s = 0.0;
    double des_s = 0.0;
    uint64_t des_iterations = 0;
    double log_ratio_sum = 0.0;
    std::size_t ratios = 0;
};

const std::vector<std::size_t> kBatches = {50,  100,  200, 400,
                                           800, 1600, 3200};

PassStats
runPass(const Grid& g, const core::Estimator& est, SpanRecorder& spans,
        OpCounter& ops)
{
    PassStats st;
    Digest digest;
    Span root(spans, "plan.pass");
    const double t0 = threadCpuSeconds();
    for (const auto& m : g.models) {
        for (const auto& sys : g.systems) {
            cost::IterationEstimate e;
            {
                Span s(spans, "cost.estimate");
                e = est.estimate(m, sys);
            }
            std::vector<core::RankedSetup> ranked;
            {
                Span s(spans, "core.rank_placements");
                ranked = est.rankPlacements(m, sys);
            }
            core::RankedSetup best;
            {
                Span s(spans, "core.optimal_batch");
                best = est.optimalBatch(m, sys, kBatches);
            }
            placement::PlacementPlan plan;
            {
                Span s(spans, "placement.plan");
                plan = placement::planPlacement(sys.placement, m,
                                                sys.platform,
                                                sys.placement_options);
            }
            st.estimator_calls += 3;
            bool ok = sane(e) && sane(best.estimate);
            addEstimate(digest, e);
            addEstimate(digest, best.estimate);
            digest.add(static_cast<double>(best.system.batch_size));
            digest.add(plan.feasible ? 1.0 : 0.0);
            for (const auto& r : ranked) {
                ok = ok && sane(r.estimate);
                addEstimate(digest, r.estimate);
                digest.add(placement::toString(r.system.placement));
            }
            ops.check(ok, line("non-finite or non-positive estimate for "
                               "%s on %s", m.name.c_str(),
                               sys.summary().c_str()));
        }
    }
    st.estimator_s = threadCpuSeconds() - t0;

    for (const auto& cfg : g.des) {
        sim::DistSimResult r;
        const double t1 = threadCpuSeconds();
        {
            Span s(spans, "sim.des");
            r = sim::runDistSim(cfg);
        }
        st.des_s += threadCpuSeconds() - t1;
        digest.add(r.feasible ? 1.0 : 0.0);
        digest.add(r.throughput);
        digest.add(static_cast<double>(r.iterations));
        digest.add(r.mean_iteration_seconds);
        st.des_iterations += r.iterations;
        const auto a = cost::IterationModel(cfg.model, cfg.system,
                                            cfg.params).estimate();
        const bool ok = !r.feasible ||
            (std::isfinite(r.throughput) && r.throughput > 0.0);
        ops.check(ok, line("DES throughput %.17g for %s", r.throughput,
                           cfg.model.name.c_str()));
        if (r.feasible && a.feasible && r.throughput > 0.0) {
            st.log_ratio_sum += std::log(r.throughput / a.throughput);
            ++st.ratios;
        }
    }
    st.digest = digest.h;
    return st;
}

} // namespace

WorkloadResult
runPlan(const RunOptions& opt, SpanRecorder& spans)
{
    WorkloadResult res;
    util::globalThreadPool().resize(1);

    // Set-up: the grid's configurations and the estimator. The grid
    // is built again, and timed, before every pass, so that setup_s is
    // a median over the whole run rather than over one second of it.
    std::vector<double> setup_s;
    Grid grid = buildGrid(opt.seed);
    const core::Estimator est;

    // Untraced passes (all of the run, or its first third when traced).
    // Each timed pass, and the grid build before it, is one unit of the
    // gauge log, followed by a gauge sample.
    SpanRecorder off(false);
    std::vector<PassStats> passes;
    uint64_t first_digest = 0;
    std::vector<double> pass_ms;
    GaugeLog log;
    auto measure = [&](double seconds, std::size_t need, SpanRecorder& rec,
                       std::vector<double>& times, GaugeLog* glog) {
        const double t0 = nowSeconds();
        while ((nowSeconds() - t0 < seconds || times.size() < need) &&
               nowSeconds() - t0 < 6.0 * seconds + 30.0) {
            if (glog)
                glog->unit();
            const double g0 = threadCpuSeconds();
            grid = buildGrid(opt.seed);
            if (glog)
                setup_s.push_back(threadCpuSeconds() - g0);
            const double p0 = threadCpuSeconds();
            passes.push_back(runPass(grid, est, rec, res.ops));
            if (passes.size() == 1 && first_digest == 0)
                first_digest = passes.front().digest;
            times.push_back((threadCpuSeconds() - p0) * 1e3);
            res.ops.check(passes.back().digest == first_digest,
                          line("pass %zu digest %016llx != first pass "
                               "%016llx", passes.size(),
                               static_cast<unsigned long long>(
                                   passes.back().digest),
                               static_cast<unsigned long long>(
                                   first_digest)));
            if (glog)
                glog->gauge(hostSlowdown());
        }
    };
    std::vector<double> warm_ms;
    measure(kWarmSeconds, 1, off, warm_ms, nullptr);
    passes.clear();
    // Untraced: enough passes that each half of the run supports its
    // own p90. Traced: enough for the chunked p50.
    if (opt.trace)
        measure(opt.seconds / 3.0, kChunks, off, pass_ms, &log);
    else
        measure(opt.seconds, kTailChunks * samplesForTail(0.9), off,
                pass_ms, &log);
    const auto slow = log.unitSlowdowns(kGaugeGroups);
    const auto norm_ms = divided(pass_ms, slow);
    const double pass_p50 = chunkPercentile(norm_ms, kChunks, 0.5);
    const double pass_p90 = chunkPercentile(norm_ms, kTailChunks, 0.9);
    const double raw_p50 = chunkPercentile(pass_ms, kChunks, 0.5);

    double des_s = 0.0;
    uint64_t iters = 0;
    std::vector<double> calls, est_s;
    for (const auto& p : passes) {
        des_s += p.des_s;
        iters += p.des_iterations;
        calls.push_back(static_cast<double>(p.estimator_calls));
        est_s.push_back(p.estimator_s);
    }
    const double est_per_s =
        chunkRate(calls, divided(est_s, slow), kChunks);
    const double des_runs =
        static_cast<double>(passes.size() * grid.des.size());
    const double gmean =
        std::exp(passes.front().log_ratio_sum /
                 static_cast<double>(std::max<std::size_t>(
                     passes.front().ratios, 1)));
    res.report.push_back(line(
        "plan_sweep: %zu models x %zu setups, %zu DES configs per pass, "
        "%zu passes",
        grid.models.size(), grid.systems.size(), grid.des.size(),
        passes.size()));
    const double setup = percentile(divided(setup_s, slow), 0.5);
    res.report.push_back(line(
        "  host slowdown %.3f (median of %zu gauge samples; raw pass ms p50 "
        "%.3f); every time below is thread CPU time over the slowdown",
        percentile(slow, 0.5), log.samples(), raw_p50));
    res.report.push_back(line("  setup_s %.6f s (median of %zu set-ups)",
                              setup, setup_s.size()));
    res.report.push_back(line(
        "  plan_estimates_per_s %.1f 1/s (median of %zu chunks); "
        "des_runs_per_s %.1f 1/s; pass ms p50 %.3f (median of %zu "
        "chunks); DES/analytical gmean %.4f (simulated, no hardware "
        "reference: unvalidated)",
        est_per_s, kChunks, des_runs / des_s, pass_p50, kChunks, gmean));
    if (!opt.trace)
        res.report.push_back(line(
            "  pass ms p90 %.3f (median of %zu chunks' p90s, %zu "
            "samples beyond each)",
            pass_p90, kTailChunks,
            samplesBeyond(pass_ms.size() / kTailChunks, 0.9)));

    if (opt.trace) {
        std::vector<double> traced_ms;
        measure(2.0 * opt.seconds / 3.0, kChunks, spans, traced_ms,
                nullptr);
        auto us = [&](const char* name) {
            return percentile(spans.selfTimesMs(name), 0.5) * 1e3;
        };
        auto& v = res.values;
        v["cost.estimate_us"] = us("cost.estimate");
        v["core.rank_placements_us"] = us("core.rank_placements");
        v["core.optimal_batch_us"] = us("core.optimal_batch");
        v["placement.plan_us"] = us("placement.plan");
        v["sim.des_ms_per_run"] = us("sim.des") * 1e-3;
        v["sim.des_iters_per_host_s"] = static_cast<double>(iters) / des_s;
        v["sim.des_vs_analytical_gmean"] = gmean;
        v["bench.trace_overhead"] =
            chunkPercentile(traced_ms, kChunks, 0.5) / raw_p50;
    } else {
        res.values["throughput_per_s"] = est_per_s;
        res.values["latency_ms_p50"] = pass_p50;
        res.values["latency_ms_tail"] = pass_p90;
        res.values["setup_s"] = setup;
    }
    return res;
}

} // namespace perfbench
