#include "report.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <set>

namespace perfbench {

double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const double pos =
        std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double
chunkRate(const std::vector<double>& work,
          const std::vector<double>& seconds, std::size_t chunks)
{
    const std::size_t n = std::min(work.size(), seconds.size());
    if (chunks == 0 || n < chunks)
        return 0.0;
    std::vector<double> rates;
    for (std::size_t c = 0; c < chunks; ++c) {
        double w = 0.0, s = 0.0;
        for (std::size_t i = c * n / chunks; i < (c + 1) * n / chunks; ++i) {
            w += work[i];
            s += seconds[i];
        }
        rates.push_back(s > 0.0 ? w / s : 0.0);
    }
    return percentile(rates, 0.5);
}

double
chunkPercentile(const std::vector<double>& samples, std::size_t chunks,
                double within)
{
    const std::size_t n = samples.size();
    if (chunks == 0 || n < chunks)
        return 0.0;
    std::vector<double> per_chunk;
    for (std::size_t c = 0; c < chunks; ++c)
        per_chunk.push_back(percentile(
            std::vector<double>(samples.begin() + c * n / chunks,
                                samples.begin() + (c + 1) * n / chunks),
            within));
    return percentile(per_chunk, 0.5);
}

std::vector<double>
GaugeLog::unitSlowdowns(std::size_t chunks) const
{
    const std::size_t n = marks_.size();
    std::vector<double> out(n, 1.0);
    if (slowdowns_.empty() || n == 0)
        return out;
    chunks = std::clamp<std::size_t>(chunks, 1, n);
    for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t a = c * n / chunks, b = (c + 1) * n / chunks;
        std::size_t lo = marks_[a];
        std::size_t hi = b < n ? marks_[b] : slowdowns_.size();
        if (lo >= hi) {
            lo = lo > 0 ? lo - 1 : 0;
            hi = lo + 1;
        }
        const double s = percentile(
            std::vector<double>(slowdowns_.begin() + lo,
                                slowdowns_.begin() + hi),
            0.5);
        std::fill(out.begin() + a, out.begin() + b, s);
    }
    return out;
}

std::vector<double>
divided(const std::vector<double>& values, const std::vector<double>& by)
{
    std::vector<double> out;
    for (std::size_t i = 0; i < values.size() && i < by.size(); ++i)
        out.push_back(values[i] / by[i]);
    return out;
}

std::size_t
samplesBeyond(std::size_t n, double q)
{
    // Ranks 0..n-1; the percentile sits at rank q * (n - 1), and every
    // rank strictly above it lies beyond.
    if (n == 0)
        return 0;
    const double pos = q * static_cast<double>(n - 1);
    const auto at = static_cast<std::size_t>(std::floor(pos));
    return n - 1 - at;
}

bool
tailSupported(std::size_t n, double q)
{
    return samplesBeyond(n, q) >= kTailSupport;
}

std::size_t
samplesForTail(double q)
{
    std::size_t n = kTailSupport + 1;
    while (!tailSupported(n, q))
        ++n;
    return n;
}

bool
meetsSla(const RateOutcome& o)
{
    if (o.offered == 0)
        return false;
    const double share =
        static_cast<double>(o.on_time) / static_cast<double>(o.offered);
    return share >= kSlaShare && o.drain_s <= o.sla_s;
}

namespace {

/** The rung qpsAtSla() reports, or null. */
const RateOutcome*
slaRung(const std::vector<RateOutcome>& ladder)
{
    std::vector<const RateOutcome*> sorted;
    for (const auto& o : ladder)
        sorted.push_back(&o);
    std::sort(sorted.begin(), sorted.end(),
              [](const RateOutcome* a, const RateOutcome* b) {
                  return a->rate_qps < b->rate_qps;
              });
    const RateOutcome* best = nullptr;
    for (const auto* o : sorted) {
        if (!meetsSla(*o))
            break;
        best = o;
    }
    return best;
}

} // namespace

double
qpsAtSla(const std::vector<RateOutcome>& ladder)
{
    const RateOutcome* rung = slaRung(ladder);
    return rung ? rung->rate_qps : 0.0;
}

double
goodputAtSla(const std::vector<RateOutcome>& ladder)
{
    const RateOutcome* rung = slaRung(ladder);
    return rung && rung->duration_s > 0.0
        ? static_cast<double>(rung->on_time) / rung->duration_s
        : 0.0;
}

bool
OpCounter::check(bool ok, const std::string& what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        std::cerr << "perfbench: check failed: " << what << "\n";
    }
    return ok;
}

double
OpCounter::failedFraction() const
{
    return attempted_ ? static_cast<double>(failed_) /
            static_cast<double>(attempted_)
                      : 0.0;
}

bool
validMetricName(const std::string& name)
{
    if (name.empty() || name.size() > 64 ||
        !std::isalnum(static_cast<unsigned char>(name[0])))
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
            c == '.' || c == '-';
    });
}

bool
validUnit(const std::string& unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    return std::all_of(unit.begin(), unit.end(), [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
            c == '/' || c == '%' || c == '.' || c == '-';
    });
}

std::string
resultJson(bool correct, uint64_t attempted, uint64_t failed,
           const std::vector<Metric>& metrics)
{
    std::set<std::string> seen;
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& m : metrics) {
        if (!validMetricName(m.name) || !validUnit(m.unit) ||
            !std::isfinite(m.value) || !seen.insert(m.name).second)
            return {};
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", m.value);
        out += first ? "" : ", ";
        out += "\"" + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    out += "}}";
    return out;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

double
cpuClockSeconds(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) +
        static_cast<double>(ts.tv_nsec) * 1e-9;
}

} // namespace

double
threadCpuSeconds()
{
    return cpuClockSeconds(CLOCK_THREAD_CPUTIME_ID);
}

double
processCpuSeconds()
{
    return cpuClockSeconds(CLOCK_PROCESS_CPUTIME_ID);
}

} // namespace perfbench
