#include "gauge.h"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "report.h"

namespace perfbench {

namespace {

constexpr std::size_t kHeapLen = 4096;
constexpr int kHeapOps = 30000;

/**
 * Thread CPU seconds of the kernel on one core of the nominal host, an
 * Intel Xeon (Sapphire Rapids, 4 vCPUs of a KVM guest), in its fast
 * state.
 */
constexpr double kNominalSeconds = 1.3e-3;

volatile uint64_t g_sink = 0;

uint64_t
xorshift(uint64_t& x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

} // namespace

double
hostSlowdown()
{
    const double t0 = threadCpuSeconds();
    std::vector<uint64_t> heap(kHeapLen);
    uint64_t x = 0x2545f4914f6cdd1dull;
    for (auto& h : heap)
        h = xorshift(x);
    std::make_heap(heap.begin(), heap.end());
    for (int i = 0; i < kHeapOps; ++i) {
        std::pop_heap(heap.begin(), heap.end());
        heap.back() = heap.back() / 2 + (xorshift(x) >> 2);
        std::push_heap(heap.begin(), heap.end());
    }
    g_sink = g_sink + heap.front();
    return (threadCpuSeconds() - t0) / kNominalSeconds;
}

} // namespace perfbench
