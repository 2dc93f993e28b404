/**
 * @file
 * Runtime SIMD dispatch and the vectorized exp approximation shared by
 * the tensor kernels (ops.cc).
 *
 * Dispatch contract: the library is compiled for the baseline ISA; the
 * vector kernels are per-function `target(...)` specializations, and
 * one of three tiers is selected once at startup with
 * `__builtin_cpu_supports`:
 *
 *  - Tier::kAvx512 (avx512f + avx2 + fma): the GEMM core runs an 8-row
 *    x 32-column zmm register tile; every other kernel runs its AVX2
 *    version (elementwise kernels and sumRows stay AVX2 — their share
 *    of a training step is too small to pay for a third copy).
 *  - Tier::kAvx2 (avx2 + fma): 6-row x 16-column ymm GEMM tiles and
 *    the AVX2 elementwise kernels.
 *  - Tier::kScalar: portable loops, std::fma where the vector code
 *    uses vfmadd.
 *
 * Setting RECSIM_NO_SIMD=1 in the environment (read once, before first
 * use) forces the scalar tier — the sanitizer matrix exercises that
 * path. Every tier computes bit-identical results: all of them share
 * the per-element operation order documented on each kernel, so
 * switching tiers — like switching thread counts — never changes a
 * single bit.
 *
 * Fast exp: a Cephes-style degree-5 polynomial after base-2 range
 * reduction, max relative error <= 1e-6 against libm over the clamped
 * domain (tested by a dense sweep in test_tensor.cc). Inputs are
 * clamped to [-87.336544, 88.376259] so the result saturates at the
 * smallest-normal / near-FLT_MAX ends instead of producing denormals
 * or infinities.
 */
#pragma once

#include <cstddef>

namespace recsim {
namespace tensor {
namespace simd {

/** Dispatch tiers, ordered by capability. */
enum class Tier
{
    kScalar = 0,
    kAvx2 = 1,   ///< avx2 + fma
    kAvx512 = 2, ///< avx512f (plus avx2 + fma for the non-GEMM kernels)
};

/**
 * The highest tier compiled in and supported by this CPU, ignoring
 * RECSIM_NO_SIMD. Cached after the first call.
 */
Tier supportedTier();

/**
 * The tier the kernels dispatch to: the innermost live
 * ScopedTierOverride if there is one, else kScalar when RECSIM_NO_SIMD
 * is set to anything but ""/"0", else supportedTier().
 */
Tier activeTier();

/** "scalar", "avx2-fma" or "avx512f". */
const char* tierName(Tier tier);

/** tierName(activeTier()). */
const char* activeKernels();

/**
 * Test-only: dispatch to @p tier (which must not exceed
 * supportedTier(), but may exceed what RECSIM_NO_SIMD allows) for the
 * lifetime of the object, so one process can compare every tier the
 * CPU has. Construct and destroy only while no kernel is running;
 * overrides nest.
 */
class ScopedTierOverride
{
  public:
    explicit ScopedTierOverride(Tier tier);
    ~ScopedTierOverride();

    ScopedTierOverride(const ScopedTierOverride&) = delete;
    ScopedTierOverride& operator=(const ScopedTierOverride&) = delete;

  private:
    int previous_;
};

/**
 * Scalar reference fast exp — the exact per-lane arithmetic of the
 * AVX2 path (same fma sequence, same rounding trick), used by the
 * scalar fallbacks and by tail elements of vector loops.
 */
float fastExpScalar(float x);

/** Dispatching fast exp for a single value (== fastExpScalar). */
float fastExp(float x);

/**
 * In-place logistic sigmoid over a span: x[i] = 1 / (1 + exp(-x[i]))
 * with the fast exp. Branchless and overflow-safe via the exp clamp.
 * No threading — callers chunk via parallelFor; scalar and AVX2 paths
 * are bit-identical (the AVX-512 tier uses the AVX2 path).
 */
void sigmoidSpan(float* x, std::size_t n);

/**
 * ReLU-backward mask over a span: dx[i] = y[i] > 0 ? dy[i] : 0, where
 * @p y is the forward *post-activation* output. The AVX2 path selects
 * dy's bits through an all-ones/all-zeros compare mask (a > 0 compare
 * ANDed with dy), which yields exactly dy or +0.0f per lane — the same
 * bits the scalar ternary produces — so the paths are bit-identical,
 * including for -0.0 and NaN inputs in y. dy and dx may alias (the
 * in-place case); y must not alias dx. No threading — callers chunk
 * via parallelFor; the AVX-512 tier uses the AVX2 path.
 */
void reluMaskSpan(const float* y, const float* dy, float* dx,
                  std::size_t n);

} // namespace simd
} // namespace tensor
} // namespace recsim
