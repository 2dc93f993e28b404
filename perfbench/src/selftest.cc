/**
 * @file
 * Self-tests of the benchmark's own helpers: the tail-support rule of
 * the reported percentiles, the serving capacity rule, failure
 * counting, metric-name validation, the result line and span self
 * time. run.py runs them before every benchmark run.
 */
#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "report.h"
#include "spans.h"

using namespace perfbench;

namespace {

int g_failures = 0;

void
expect(bool ok, const std::string& what)
{
    if (!ok) {
        ++g_failures;
        std::cerr << "FAIL: " << what << "\n";
    }
}

std::size_t
countAbove(const std::vector<double>& v, double x)
{
    std::size_t n = 0;
    for (double s : v)
        n += s > x ? 1 : 0;
    return n;
}

void
testPercentile()
{
    expect(percentile({}, 0.5) == 0.0, "empty percentile is 0");
    expect(percentile({3, 1, 2}, 0.5) == 2.0, "median of 1,2,3");
    expect(percentile({1, 2, 3, 4}, 0.5) == 2.5, "median interpolates");
    expect(percentile({5, 1}, 1.0) == 5.0, "p100 is the max");
    for (const double q : {0.5, 0.9, 0.99}) {
        const std::size_t n = samplesForTail(q);
        expect(tailSupported(n, q) && !tailSupported(n - 1, q),
               "samplesForTail is the smallest supporting count");
        // On distinct data, the samples strictly above the reported
        // value are the ones the rule counts.
        for (const std::size_t m : {n - 1, n, n + 7}) {
            std::vector<double> v;
            for (std::size_t i = 0; i < m; ++i)
                v.push_back(static_cast<double>((i * 7919) % m));
            const std::size_t above = countAbove(v, percentile(v, q));
            expect(above == samplesBeyond(m, q),
                   "samplesBeyond counts samples above the percentile");
            expect((above >= kTailSupport) == tailSupported(m, q),
                   "tail support means >= 10 samples beyond");
        }
    }
    expect(samplesBeyond(100, 0.9) == 10, "100 samples support p90");

    // Ten ops of 1 unit in 1 s, four of them stalled to 10 s: the
    // median of chunk rates stays at the steady 1/s.
    std::vector<double> work(10, 1.0), secs(10, 1.0);
    for (const int i : {1, 4, 7, 8})
        secs[i] = 10.0;
    expect(chunkRate(work, secs, 10) == 1.0,
           "median chunk rate ignores a stalled minority");
    expect(chunkRate(work, secs, 1) == 10.0 / 46.0,
           "one chunk is the plain rate");
    expect(chunkRate(work, secs, 11) == 0.0,
           "fewer ops than chunks gives 0");

    // Three chunks of 100 samples 1..100, the middle one stalled x10.
    std::vector<double> steps;
    for (int c = 0; c < 3; ++c)
        for (int i = 1; i <= 100; ++i)
            steps.push_back(c == 1 ? 10.0 * i : i);
    const double p90 = percentile(std::vector<double>(steps.begin(),
                                                      steps.begin() + 100),
                                  0.9);
    expect(chunkPercentile(steps, 3, 0.9) == p90,
           "median chunk p90 ignores a stalled chunk");
    expect(chunkPercentile(steps, 1, 0.9) == percentile(steps, 0.9),
           "one chunk is the plain percentile");
    expect(chunkPercentile(steps, 301, 0.5) == 0.0,
           "fewer samples than chunks gives 0");
    expect(!tailSupported(91, 0.9), "91 samples do not support p90");
}

RateOutcome
rate(double qps, std::size_t on_time, std::size_t late,
     std::size_t evicted, double drain_s = 0.001)
{
    RateOutcome o;
    o.rate_qps = qps;
    o.on_time = on_time;
    o.late = late;
    o.evicted = evicted;
    o.offered = on_time + late + evicted;
    o.drain_s = drain_s;
    o.sla_s = 0.05;
    return o;
}

void
testGaugeLog()
{
    GaugeLog none;
    for (int i = 0; i < 4; ++i)
        none.unit();
    expect(none.unitSlowdowns(2) == std::vector<double>(4, 1.0),
           "no gauge samples leave units as measured");

    // Units 0-3 ran at slowdown ~2 (samples 1.9, 2, 2.1 among them),
    // units 4-7 at 3 (one sample after unit 7 only).
    GaugeLog log;
    for (int i = 0; i < 8; ++i) {
        log.unit();
        if (i == 0)
            log.gauge(1.9);
        if (i == 2) {
            log.gauge(2.0);
            log.gauge(2.1);
        }
        if (i == 7)
            log.gauge(3.0);
    }
    const auto s = log.unitSlowdowns(2);
    expect(s == std::vector<double>({2, 2, 2, 2, 3, 3, 3, 3}),
           "a group's slowdown is the median of its own samples");
    expect(divided({4, 6}, {2, 3}) == std::vector<double>({2, 2}),
           "divided divides element-wise");

    // A group without a sample takes the last one before it.
    GaugeLog sparse;
    for (int i = 0; i < 6; ++i) {
        sparse.unit();
        if (i == 1)
            sparse.gauge(1.5);
    }
    expect(sparse.unitSlowdowns(3) ==
               std::vector<double>({1.5, 1.5, 1.5, 1.5, 1.5, 1.5}),
           "groups without samples take the nearest earlier sample");
    GaugeLog late;
    for (int i = 0; i < 4; ++i)
        late.unit();
    late.gauge(1.25);
    expect(late.unitSlowdowns(2) == std::vector<double>(4, 1.25),
           "a first group without samples takes the first one after it");
}

void
testSlaRule()
{
    expect(meetsSla(rate(100, 99, 1, 0)), "99% on time passes");
    expect(meetsSla(rate(100, 99, 0, 1)), "one eviction in 100 passes");
    expect(!meetsSla(rate(100, 98, 0, 2)), "evicted queries are misses");
    expect(!meetsSla(rate(100, 98, 1, 1)), "late + evicted both miss");
    expect(!meetsSla(rate(100, 100, 0, 0, 0.2)),
           "a backlog still draining past the SLA disqualifies");
    expect(!meetsSla(RateOutcome{}), "no queries cannot pass");

    expect(qpsAtSla({rate(400, 90, 10, 0), rate(100, 100, 0, 0),
                     rate(200, 100, 0, 0), rate(300, 100, 0, 0)}) == 300,
           "highest passing rate, ladder unsorted");
    expect(qpsAtSla({rate(100, 100, 0, 0), rate(200, 50, 0, 50),
                     rate(300, 100, 0, 0)}) == 100,
           "a failing rung caps the result even if a higher one passes");
    expect(qpsAtSla({rate(100, 100, 0, 0, 1.0)}) == 0,
           "failing lowest rung gives 0");
}

void
testOpCounter()
{
    OpCounter ops;
    expect(ops.failedFraction() == 0.0, "nothing attempted, nothing failed");
    ops.check(true, "ok");
    ops.check(false, "expected failure (self-test)");
    ops.check(true, "ok");
    ops.check(true, "ok");
    expect(ops.attempted() == 4 && ops.failed() == 1,
           "attempted and failed counts");
    expect(ops.failedFraction() == 0.25, "failed fraction");
}

void
testNames()
{
    for (const char* ok : {"setup_s", "nn.emb_fwd_ms", "a", "9-x.y_z",
                           "throughput_per_s"})
        expect(validMetricName(ok), std::string("valid name ") + ok);
    for (const char* bad : {"", ".lead", "_lead", "has space", "a/b",
                            "a\"b", "ümlaut"})
        expect(!validMetricName(bad), std::string("invalid name ") + bad);
    expect(validMetricName(std::string(64, 'a')), "64 characters allowed");
    expect(!validMetricName(std::string(65, 'a')), "65 characters refused");
    expect(validUnit("1/s") && validUnit("GFLOP/s") && validUnit("%"),
           "units");
    expect(!validUnit("") && !validUnit("m s") &&
               !validUnit(std::string(17, 'u')),
           "bad units");
}

void
testResultJson()
{
    const std::string ok = resultJson(
        true, 3, 0, {{"latency_ms_p50", 1.25, "ms"}, {"setup_s", 0.5, "s"}});
    expect(ok == "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
                 "\"metrics\": {\"latency_ms_p50\": {\"value\": 1.25, "
                 "\"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.5, "
                 "\"unit\": \"s\"}}}",
           "result line format: " + ok);
    const std::string digits = resultJson(true, 1, 0, {{"x", 0.1, "s"}});
    expect(digits.find("0.10000000000000001") != std::string::npos,
           "values keep all their digits");
    expect(resultJson(true, 1, 0, {{"a", 1, "s"}, {"a", 2, "s"}}).empty(),
           "duplicate name refused");
    expect(resultJson(true, 1, 0, {{"a b", 1, "s"}}).empty(),
           "bad name refused");
    expect(resultJson(true, 1, 0, {{"a", std::nan(""), "s"}}).empty(),
           "non-finite value refused");
}

void
testSpans()
{
    using namespace std::chrono_literals;
    SpanRecorder rec(true);
    for (int i = 0; i < 2; ++i) {
        Span root(rec, "root");
        std::this_thread::sleep_for(2ms);
        {
            Span child(rec, "child", 5);
            std::this_thread::sleep_for(4ms);
        }
    }
    const auto& r = rec.records();
    expect(r.size() == 4 && r[0].parent == -1 && r[1].parent == 0 &&
               r[2].parent == -1 && r[3].parent == 2,
           "parents follow nesting");
    const double root_ms =
        static_cast<double>(r[0].end_ns - r[0].start_ns) * 1e-6;
    expect(std::abs(rec.selfMs(0) + rec.selfMs(1) - root_ms) < 1e-6,
           "self time = duration minus children");
    expect(rec.selfMs(1) >= 4.0 && rec.selfMs(0) >= 2.0,
           "self times cover the sleeps");
    const auto per_root = rec.sumPerRootMs("root", "child");
    expect(per_root.size() == 2 && per_root[0] == rec.selfMs(1),
           "per-root sums");
    expect(rec.totalCount("child") == 10, "span counts add up");

    SpanRecorder off(false);
    {
        Span s(off, "ignored");
    }
    expect(off.records().empty(), "disabled recorder keeps nothing");
}

} // namespace

int
main()
{
    testPercentile();
    testGaugeLog();
    testSlaRule();
    testOpCounter();
    testNames();
    testResultJson();
    testSpans();
    if (g_failures != 0) {
        std::cerr << g_failures << " self-test failure(s)\n";
        return 1;
    }
    std::cout << "perfbench self-tests passed\n";
    return 0;
}
