/**
 * @file
 * The benchmark's own helpers: order statistics with a tail-support
 * rule, the serving capacity rule (highest ladder rate meeting the
 * SLA), operation/failure counting, metric-name validation and the
 * one-line JSON result. Kept free of recsim dependencies beyond
 * util so the self-test links nothing else.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Samples that must lie strictly beyond a reported percentile. */
constexpr std::size_t kTailSupport = 10;

/**
 * Percentile @p q in [0, 1] of @p samples by linear interpolation
 * between closest ranks (numpy's default). Returns 0 for no samples.
 */
double percentile(std::vector<double> samples, double q);

/**
 * Split a run of operations, in the order they ran, into @p chunks
 * contiguous groups (sizes differ by at most one), take each group's
 * summed @p work / summed @p seconds, and return the median over
 * groups. Returns 0 when there are fewer operations than chunks.
 */
double chunkRate(const std::vector<double>& work,
                 const std::vector<double>& seconds, std::size_t chunks);

/**
 * Split @p samples, in the order they were taken, into @p chunks
 * contiguous groups, take each group's @p within percentile, and
 * return the median over groups. Returns 0 when there are fewer
 * samples than chunks.
 */
double chunkPercentile(const std::vector<double>& samples,
                       std::size_t chunks, double within);

/**
 * Units of work in the order they ran, interleaved with host-gauge
 * samples (see gauge.h), so that each unit's time can be divided by
 * the host's slowdown over the stretch of the run it belongs to.
 */
class GaugeLog
{
  public:
    /** A unit of work starts now. */
    void unit() { marks_.push_back(slowdowns_.size()); }
    /** A gauge sample was taken now. */
    void gauge(double slowdown) { slowdowns_.push_back(slowdown); }

    std::size_t samples() const { return slowdowns_.size(); }

    /**
     * The slowdown of every unit. The units are split into @p chunks
     * contiguous groups as chunkRate() splits them, and a group's
     * slowdown is the median of the samples taken from its first
     * unit's start to the next group's first unit's start. A group
     * with no sample of its own takes the last sample before it, or
     * the first one after it. All 1 when there are no samples.
     */
    std::vector<double> unitSlowdowns(std::size_t chunks) const;

  private:
    std::vector<std::size_t> marks_;
    std::vector<double> slowdowns_;
};

/** values[i] / by[i] for every i. */
std::vector<double> divided(const std::vector<double>& values,
                            const std::vector<double>& by);

/** Samples strictly beyond the @p q percentile of @p n samples. */
std::size_t samplesBeyond(std::size_t n, double q);

/** True when @p n samples put >= kTailSupport beyond percentile q. */
bool tailSupported(std::size_t n, double q);

/** Fewest samples that support percentile @p q. */
std::size_t samplesForTail(double q);

/** Outcome of replaying one ladder rate. */
struct RateOutcome
{
    double rate_qps = 0.0;
    std::size_t offered = 0;
    /** Served and completed by the query's deadline. */
    std::size_t on_time = 0;
    /** Served after the deadline. */
    std::size_t late = 0;
    /** Dropped unserved; counts as a miss. */
    std::size_t evicted = 0;
    /** Seconds the engine kept working after the last arrival. */
    double drain_s = 0.0;
    /** The per-query SLA the trace carried, seconds. */
    double sla_s = 0.0;
    /** Length of the arrival trace, seconds. */
    double duration_s = 0.0;
};

/** Minimum share of offered queries that must finish within SLA. */
constexpr double kSlaShare = 0.99;

/**
 * A rate passes when at least kSlaShare of the offered queries
 * complete within the SLA (evicted and late ones both miss) and the
 * backlog does not grow: the engine finishes the trace within one SLA
 * of the last arrival. An engine that falls behind accumulates work
 * it is still serving after arrivals stop.
 */
bool meetsSla(const RateOutcome& outcome);

/**
 * Highest ladder rate r such that every ladder rate <= r passes
 * meetsSla(). Rates need not be sorted. 0 when the lowest rate fails.
 */
double qpsAtSla(const std::vector<RateOutcome>& ladder);

/**
 * Queries completed within the SLA per second of trace at the rung
 * qpsAtSla() picks: the ladder rate as the trace actually delivered
 * it. 0 when no rung qualifies.
 */
double goodputAtSla(const std::vector<RateOutcome>& ladder);

/**
 * Counts operations the workload attempted and those whose output
 * failed a correctness check. A failed check prints its reason on
 * stderr; the run keeps going so every failure is counted.
 */
class OpCounter
{
  public:
    /** Count one operation; @p ok false marks it failed. */
    bool check(bool ok, const std::string& what);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    /** failed / attempted, 0 when nothing was attempted. */
    double failedFraction() const;

  private:
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/**
 * Metric names: 1 to 64 characters of [A-Za-z0-9_.-], starting with
 * a letter or digit.
 */
bool validMetricName(const std::string& name);

/** Units: 1 to 16 characters of [A-Za-z0-9_/%.-]. */
bool validUnit(const std::string& unit);

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * The result line: {"correct", "attempted", "failed", "metrics"}, each
 * metric as {"value", "unit"} with the value's full precision.
 * Returns an empty string when a name or unit is invalid, a name
 * repeats or a value is not finite.
 */
std::string resultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

/** Peak resident set size of this process, MiB. */
double peakRssMb();

/** Seconds on the steady clock. */
double nowSeconds();

/**
 * CPU seconds the calling thread has run. On a shared host it leaves
 * out the time the thread waited for a core, whether another process
 * or the hypervisor took it (steal), so it times single-threaded work
 * without the host's load bursts.
 */
double threadCpuSeconds();

/**
 * CPU seconds of every thread of this process, user and system time
 * (page faults included). Idle pool workers block and add nothing.
 */
double processCpuSeconds();

} // namespace perfbench
