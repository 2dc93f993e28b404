/**
 * @file
 * The repository benchmark. Runs one workload (training on a 4-thread
 * pool, serving and planning on one thread) and prints a
 * human-readable report followed by one JSON result line.
 *
 * Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--trace-out PATH]
 *
 * Workloads: train_dense, train_sparse, serve_open, plan_sweep.
 * --trace 0 reports the end-to-end metrics; --trace 1 records spans
 * around the benchmark's calls into each layer and reports per-layer
 * metrics (layers a workload never calls read 0), writing the spans
 * as a Chrome trace to PATH.
 */
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "workload.h"

namespace perfbench {

std::string
line(const char* fmt, ...)
{
    char buf[1024];
    va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, args);
    va_end(args);
    return buf;
}

namespace {

struct MetricDef
{
    const char* name;
    const char* unit;
};

/** End-to-end metrics every workload reports (NOTES.md has the
 *  meaning of each on each workload). */
const MetricDef kEndToEnd[] = {
    {"throughput_per_s", "1/s"},
    {"latency_ms_p50", "ms"},
    {"latency_ms_tail", "ms"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

const MetricDef kPerLayer[] = {
    {"data.batch_ms", "ms"},
    {"train.fwd_ms", "ms"},
    {"train.bwd_ms", "ms"},
    {"train.exec_speedup", "ratio"},
    {"train.scaling_4t", "ratio"},
    {"train.eval_ne", "ratio"},
    {"pool.jobs_per_step", "count"},
    {"pool.tasks_per_step", "count"},
    {"pool.idle_share", "ratio"},
    {"nn.emb_fwd_ms", "ms"},
    {"nn.emb_bwd_ms", "ms"},
    {"nn.mlp_fwd_ms", "ms"},
    {"nn.mlp_bwd_ms", "ms"},
    {"nn.interaction_fwd_ms", "ms"},
    {"nn.interaction_bwd_ms", "ms"},
    {"nn.loss_ms", "ms"},
    {"nn.optimizer_ms", "ms"},
    {"nn.emb_lookups_per_step", "count"},
    {"nn.emb_gbytes_per_s", "GB/s"},
    {"tensor.gemm_gflops", "GFLOP/s"},
    {"serve.service_ms_p50", "ms"},
    {"serve.queue_wait_ms_mean", "ms"},
    {"serve.scheduler_us_per_batch", "us"},
    {"serve.batch_queries_mean", "count"},
    {"serve.batch_items_mean", "count"},
    {"serve.engine_busy_share", "ratio"},
    {"serve.evicted_frac", "ratio"},
    {"serve.late_frac", "ratio"},
    {"cost.estimate_us", "us"},
    {"placement.plan_us", "us"},
    {"core.rank_placements_us", "us"},
    {"core.optimal_batch_us", "us"},
    {"sim.des_ms_per_run", "ms"},
    {"sim.des_iters_per_host_s", "1/s"},
    {"sim.des_vs_analytical_gmean", "ratio"},
    {"bench.trace_overhead", "ratio"},
    {"bench.unattributed_ms", "ms"},
    {"bench.unattributed_share", "ratio"},
};

int
usage(const std::string& why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload train_dense|train_sparse|"
                 "serve_open|plan_sweep --seed N --seconds S --trace 0|1 "
                 "[--trace-out PATH]\n";
    return 2;
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    std::string workload, trace_out;
    RunOptions opt;
    bool have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        char* end = nullptr;
        if (key == "--workload") {
            workload = val;
        } else if (key == "--seed") {
            opt.seed = std::strtoull(val.c_str(), &end, 10);
            have_seed = end && *end == '\0' && !val.empty();
        } else if (key == "--seconds") {
            opt.seconds = std::strtod(val.c_str(), &end);
            if (!(end && *end == '\0') || !(opt.seconds > 0.0) ||
                opt.seconds > 600.0)
                return usage("--seconds must be in (0, 600]");
        } else if (key == "--trace") {
            if (val != "0" && val != "1")
                return usage("--trace must be 0 or 1");
            opt.trace = val == "1";
        } else if (key == "--trace-out") {
            trace_out = val;
        } else {
            return usage("unknown argument " + key);
        }
    }
    if (argc % 2 == 0)
        return usage("arguments come in --key value pairs");
    if (!have_seed)
        return usage("--seed N is required");

    SpanRecorder spans(opt.trace);
    WorkloadResult res;
    if (workload == "train_dense")
        res = runTrain(opt, false, spans);
    else if (workload == "train_sparse")
        res = runTrain(opt, true, spans);
    else if (workload == "serve_open")
        res = runServe(opt, spans);
    else if (workload == "plan_sweep")
        res = runPlan(opt, spans);
    else
        return usage("unknown workload '" + workload + "'");
    res.values["peak_rss_mb"] = peakRssMb();

    std::vector<Metric> metrics;
    if (opt.trace) {
        for (const auto& d : kPerLayer) {
            const auto it = res.values.find(d.name);
            metrics.push_back(
                {d.name, it == res.values.end() ? 0.0 : it->second, d.unit});
        }
        if (!trace_out.empty() && !spans.writeChromeTrace(trace_out)) {
            std::cerr << "perfbench: cannot write " << trace_out << "\n";
            return 3;
        }
    } else {
        for (const auto& d : kEndToEnd) {
            const auto it = res.values.find(d.name);
            if (it == res.values.end() || !(it->second > 0.0)) {
                std::cerr << "perfbench: " << workload << " gave no "
                          << d.name << "\n";
                return 3;
            }
            metrics.push_back({d.name, it->second, d.unit});
        }
    }

    std::cout << "workload " << workload << ", seed " << opt.seed
              << ", " << opt.seconds << " s, trace "
              << (opt.trace ? 1 : 0) << "\n";
    for (const auto& l : res.report)
        std::cout << l << "\n";
    std::cout << line("  ops_failed_frac %.6f (%llu of %llu operations)",
                      res.ops.failedFraction(),
                      static_cast<unsigned long long>(res.ops.failed()),
                      static_cast<unsigned long long>(res.ops.attempted()))
              << "\n";
    for (const auto& m : metrics)
        std::cout << line("  %-30s %.6g %s", m.name.c_str(), m.value,
                          m.unit.c_str())
                  << "\n";
    const std::string json = resultJson(
        res.ops.failed() == 0, res.ops.attempted(), res.ops.failed(),
        metrics);
    if (json.empty() || res.ops.attempted() == 0) {
        std::cerr << "perfbench: invalid result (bad metric or no "
                     "operations checked)\n";
        return 3;
    }
    std::cout << json << std::endl;
    return 0;
}
