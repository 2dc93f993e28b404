/**
 * @file
 * What a workload receives and returns. Every workload reports the
 * same end-to-end metric names (their meaning per workload is in
 * NOTES.md); a traced run reports per-layer metrics instead, and any
 * layer the workload never calls reads 0.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "report.h"
#include "spans.h"

namespace perfbench {

struct RunOptions
{
    uint64_t seed = 1;
    /** Measured seconds of the run. */
    double seconds = 10.0;
    bool trace = false;
};

struct WorkloadResult
{
    OpCounter ops;
    /** End-to-end (untraced) or per-layer (traced) values by name. */
    std::map<std::string, double> values;
    /** Human-readable lines printed before the result line. */
    std::vector<std::string> report;
};

/** Pool size of the training workloads; serve_open and plan_sweep
 *  run on one thread. */
constexpr std::size_t kThreads = 4;
/**
 * Untimed work before measuring. The first seconds of a run on a
 * shared host are slower and noisier than the rest (page faults, pool
 * threads settling on cores), and would otherwise decide a run's
 * median on their own.
 */
constexpr double kWarmSeconds = 3.0;
/**
 * A timed run is split into consecutive chunks of about a second, and
 * each figure is taken per chunk (a chunk's rate, median or p90), then
 * summarised over the chunks. A change in the program moves every
 * chunk; the host's load moves some.
 */
constexpr std::size_t kChunks = 20;
/** Chunks for a p90, the two halves of a run: each must hold >= 10
 *  samples beyond it. */
constexpr std::size_t kTailChunks = 2;
/**
 * Every timed unit of work is divided by the host's slowdown (gauge.h)
 * over a stretch of the run: the median of the gauge samples taken
 * between the units of one of kGaugeGroups consecutive groups, a few
 * seconds each, sampling at least every kGaugeEverySeconds. Each figure
 * is then the median over chunks. On a shared host this benchmark's
 * speed moved by 2x between runs minutes apart, on the CPU clock as
 * on the wall clock; the gauge moves with it, and the program's
 * changes do not move the gauge. Groups of a few seconds hold ~30
 * samples, so the gauge's own noise stays out of the figures.
 */
constexpr double kGaugeEverySeconds = 0.15;
constexpr std::size_t kGaugeGroups = 5;

WorkloadResult runTrain(const RunOptions& opt, bool sparse,
                        SpanRecorder& spans);
WorkloadResult runServe(const RunOptions& opt, SpanRecorder& spans);
WorkloadResult runPlan(const RunOptions& opt, SpanRecorder& spans);

/** printf-style line for WorkloadResult::report. */
std::string line(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace perfbench
