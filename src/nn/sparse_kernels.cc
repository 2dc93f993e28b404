#include "nn/sparse_kernels.h"

#include <algorithm>
#include <climits>
#include <cmath>

#include "tensor/simd.h"
#include "util/logging.h"

// The vector tiers are compiled from one source (sparse_kernels_simd.inc)
// under two `#pragma GCC target` regions, a g++ feature.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#  define RECSIM_SPARSE_SIMD 1
#  include <immintrin.h>
#endif

namespace recsim {
namespace nn {
namespace kernels {

namespace {

/** Lookups (gather) or rows (optimizers) prefetched ahead of use. */
constexpr std::size_t kPrefetchAhead = 8;

/** Prefetch every cache line of one table row. */
[[maybe_unused]] inline void
prefetchRow(const float* row, std::size_t dim)
{
    for (std::size_t j = 0; j < dim; j += 64 / sizeof(float))
        __builtin_prefetch(row + j, 0, 3);
}

/** Index of pair (i, i + 1) in the row-major i < j pair list of f. */
[[maybe_unused]] inline std::size_t
pairOffset(std::size_t i, std::size_t f)
{
    return i * (2 * f - i - 1) / 2;
}

// ---------------------------------------------------------------------
// Scalar reference tier: the loops every vector tier must reproduce
// bit for bit.

void
gatherPoolScalar(const float* table_data, uint64_t hash, std::size_t dim,
                 Pooling pooling, const SparseBatch& batch,
                 float* out_data, std::size_t e0, std::size_t e1)
{
    for (std::size_t ex = e0; ex < e1; ++ex) {
        const std::size_t begin = batch.offsets[ex];
        const std::size_t end = batch.offsets[ex + 1];
        RECSIM_ASSERT(begin <= end, "corrupt SparseBatch offsets");
        float* orow = out_data + ex * dim;
        for (std::size_t k = begin; k < end; ++k) {
            const auto row_id =
                static_cast<std::size_t>(batch.indices[k] % hash);
            const float* erow = table_data + row_id * dim;
            for (std::size_t j = 0; j < dim; ++j)
                orow[j] += erow[j];
        }
        if (pooling == Pooling::Mean && end > begin) {
            const float inv = 1.0f / static_cast<float>(end - begin);
            for (std::size_t j = 0; j < dim; ++j)
                orow[j] *= inv;
        }
    }
}

void
accumulatePooledGradScalar(const SparseBatch& batch, const uint64_t* keys,
                           const float* dyd, std::size_t dim,
                           Pooling pooling, FlatSlotMap& slots,
                           std::vector<uint64_t>& rows, float* values)
{
    const std::size_t b = batch.batchSize();
    const std::size_t n = b == 0 ? 0 : batch.offsets[b];
    for (std::size_t ex = 0; ex < b; ++ex) {
        const std::size_t begin = batch.offsets[ex];
        const std::size_t end = batch.offsets[ex + 1];
        if (end == begin)
            continue;
        const float scale = pooling == Pooling::Mean
            ? 1.0f / static_cast<float>(end - begin) : 1.0f;
        const float* dyrow = dyd + ex * dim;
        for (std::size_t k = begin; k < end; ++k) {
            if (k + kPrefetchAhead < n)
                slots.prefetch(keys[k + kPrefetchAhead]);
            auto [slot, fresh] = slots.insert(keys[k]);
            if (fresh) {
                slot = static_cast<uint32_t>(rows.size());
                rows.push_back(keys[k]);
            }
            float* vrow = values + std::size_t{slot} * dim;
            if (fresh) {
                for (std::size_t j = 0; j < dim; ++j)
                    vrow[j] = 0.0f + scale * dyrow[j];
            } else {
                for (std::size_t j = 0; j < dim; ++j)
                    vrow[j] += scale * dyrow[j];
            }
        }
    }
}

void
sgdRowsScalar(float* table, std::size_t dim, const uint64_t* rows,
              std::size_t nrows, const float* values, float lr)
{
    for (std::size_t r = 0; r < nrows; ++r) {
        float* row = table + static_cast<std::size_t>(rows[r]) * dim;
        const float* g = values + r * dim;
        for (std::size_t j = 0; j < dim; ++j)
            row[j] -= lr * g[j];
    }
}

void
adagradRowsScalar(float* table, std::size_t dim, const uint64_t* rows,
                  std::size_t nrows, const float* values, float* acc,
                  float lr, float eps)
{
    for (std::size_t r = 0; r < nrows; ++r) {
        const auto row_id = static_cast<std::size_t>(rows[r]);
        const float* g = values + r * dim;
        // Row-wise Adagrad: a single accumulator per row holding the
        // mean squared gradient across the row's elements.
        float sq = 0.0f;
        for (std::size_t j = 0; j < dim; ++j)
            sq += g[j] * g[j];
        acc[row_id] += sq / static_cast<float>(dim);
        const float denom = std::sqrt(acc[row_id]) + eps;
        float* row = table + row_id * dim;
        for (std::size_t j = 0; j < dim; ++j)
            row[j] -= lr * g[j] / denom;
    }
}

void
adagradDenseScalar(float* p, const float* g, float* acc, std::size_t n,
                   float lr, float eps)
{
    for (std::size_t i = 0; i < n; ++i) {
        acc[i] += g[i] * g[i];
        p[i] -= lr * g[i] / (std::sqrt(acc[i]) + eps);
    }
}

void
dotForwardScalar(const float* const* feats, std::size_t f, std::size_t b,
                 std::size_t d, float* out, std::size_t out_stride)
{
    for (std::size_t ex = 0; ex < b; ++ex) {
        float* orow = out + ex * out_stride;
        std::size_t off = 0;
        for (std::size_t i = 0; i < f; ++i) {
            const float* vi = feats[i] + ex * d;
            for (std::size_t j = i + 1; j < f; ++j) {
                const float* vj = feats[j] + ex * d;
                float acc = 0.0f;
                for (std::size_t k = 0; k < d; ++k)
                    acc += vi[k] * vj[k];
                orow[off++] = acc;
            }
        }
    }
}

void
dotBackwardScalar(const float* const* feats, float* const* dfeats,
                  std::size_t f, std::size_t b, std::size_t d,
                  const float* pairs, const float* passthrough,
                  std::size_t pairs_stride)
{
    for (std::size_t ex = 0; ex < b; ++ex) {
        if (passthrough != nullptr) {
            // Pass-through part: the dense copy occupies the first d
            // slots of the output.
            const float* prow = passthrough + ex * pairs_stride;
            float* dv0 = dfeats[0] + ex * d;
            for (std::size_t k = 0; k < d; ++k)
                dv0[k] += prow[k];
        }
        const float* grow = pairs + ex * pairs_stride;
        std::size_t off = 0;
        for (std::size_t i = 0; i < f; ++i) {
            const float* vi = feats[i] + ex * d;
            float* dvi = dfeats[i] + ex * d;
            for (std::size_t j = i + 1; j < f; ++j) {
                const float g = grow[off++];
                if (g == 0.0f)
                    continue;
                const float* vj = feats[j] + ex * d;
                float* dvj = dfeats[j] + ex * d;
                for (std::size_t k = 0; k < d; ++k) {
                    dvi[k] += g * vj[k];
                    dvj[k] += g * vi[k];
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Vector tiers

#if defined(RECSIM_SPARSE_SIMD)

#pragma GCC push_options
#pragma GCC target("avx2")
namespace avx2 {

struct Lanes
{
    using V = __m256;
    using M = __m256i;  ///< All-ones / all-zeros per lane.
    static constexpr std::size_t W = 8;

    /** The first min(n, W) lanes. */
    static M mask(std::size_t n)
    {
        const int k = static_cast<int>(std::min<std::size_t>(n, W));
        return _mm256_cmpgt_epi32(_mm256_set1_epi32(k),
                                  _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6,
                                                    7));
    }
    static V zero() { return _mm256_setzero_ps(); }
    static V set1(float x) { return _mm256_set1_ps(x); }
    static V load(const float* p) { return _mm256_loadu_ps(p); }
    static V loadMasked(M m, const float* p)
    {
        return _mm256_maskload_ps(p, m);
    }
    static void store(float* p, V v) { _mm256_storeu_ps(p, v); }
    static void storeMasked(float* p, M m, V v)
    {
        _mm256_maskstore_ps(p, m, v);
    }
    static V add(V a, V b) { return _mm256_add_ps(a, b); }
    static V sub(V a, V b) { return _mm256_sub_ps(a, b); }
    static V mul(V a, V b) { return _mm256_mul_ps(a, b); }
    static V div(V a, V b) { return _mm256_div_ps(a, b); }
    static V sqrt(V a) { return _mm256_sqrt_ps(a); }
    /** Lane offsets l * stride for gather(). */
    static __m256i strideIndex(std::size_t stride)
    {
        return _mm256_mullo_epi32(
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            _mm256_set1_epi32(static_cast<int>(stride)));
    }
    /** Lane l = base[l * stride] for the lanes of @p m, else 0. */
    static V gather(M m, const float* base, __m256i index)
    {
        return _mm256_mask_i32gather_ps(_mm256_setzero_ps(), base, index,
                                        _mm256_castsi256_ps(m), 4);
    }
};

#include "nn/sparse_kernels_simd.inc"

} // namespace avx2
#pragma GCC pop_options

#pragma GCC push_options
#pragma GCC target("avx512f")
namespace avx512 {

struct Lanes
{
    using V = __m512;
    using M = __mmask16;
    static constexpr std::size_t W = 16;

    static M mask(std::size_t n)
    {
        return n >= W ? static_cast<M>(0xFFFF)
                      : static_cast<M>((1u << n) - 1u);
    }
    static V zero() { return _mm512_setzero_ps(); }
    static V set1(float x) { return _mm512_set1_ps(x); }
    static V load(const float* p) { return _mm512_loadu_ps(p); }
    static V loadMasked(M m, const float* p)
    {
        return _mm512_maskz_loadu_ps(m, p);
    }
    static void store(float* p, V v) { _mm512_storeu_ps(p, v); }
    static void storeMasked(float* p, M m, V v)
    {
        _mm512_mask_storeu_ps(p, m, v);
    }
    static V add(V a, V b) { return _mm512_add_ps(a, b); }
    static V sub(V a, V b) { return _mm512_sub_ps(a, b); }
    static V mul(V a, V b) { return _mm512_mul_ps(a, b); }
    static V div(V a, V b) { return _mm512_div_ps(a, b); }
    /** Full-mask form: g++ 12 warns about _mm512_sqrt_ps's undefined
     *  pass-through operand. */
    static V sqrt(V a)
    {
        return _mm512_mask_sqrt_ps(a, static_cast<M>(0xFFFF), a);
    }
    static __m512i strideIndex(std::size_t stride)
    {
        return _mm512_mullo_epi32(
            _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12,
                              13, 14, 15),
            _mm512_set1_epi32(static_cast<int>(stride)));
    }
    static V gather(M m, const float* base, __m512i index)
    {
        return _mm512_mask_i32gather_ps(_mm512_setzero_ps(), m, index,
                                        base, 4);
    }
};

#include "nn/sparse_kernels_simd.inc"

} // namespace avx512
#pragma GCC pop_options

#endif // RECSIM_SPARSE_SIMD

} // namespace

#if defined(RECSIM_SPARSE_SIMD)
/** Runs avx512::FN or avx2::FN at those tiers; falls through at scalar. */
#  define RECSIM_SPARSE_DISPATCH(FN, ...)                                 \
      switch (tensor::simd::activeTier()) {                             \
      case tensor::simd::Tier::kAvx512:                                 \
          avx512::FN(__VA_ARGS__);                                      \
          return;                                                       \
      case tensor::simd::Tier::kAvx2:                                   \
          avx2::FN(__VA_ARGS__);                                        \
          return;                                                       \
      case tensor::simd::Tier::kScalar:                                 \
          break;                                                        \
      }
#else
#  define RECSIM_SPARSE_DISPATCH(FN, ...)
#endif

void
gatherPool(const float* table, uint64_t hash, std::size_t dim,
           Pooling pooling, const SparseBatch& batch, float* out,
           std::size_t e0, std::size_t e1)
{
    RECSIM_SPARSE_DISPATCH(gatherPool, table, hash, dim, pooling, batch,
                           out, e0, e1)
    gatherPoolScalar(table, hash, dim, pooling, batch, out, e0, e1);
}

void
accumulatePooledGrad(const SparseBatch& batch, const uint64_t* keys,
                     const float* dy, std::size_t dim, Pooling pooling,
                     FlatSlotMap& slots, std::vector<uint64_t>& rows,
                     float* values)
{
    RECSIM_SPARSE_DISPATCH(accumulatePooledGrad, batch, keys, dy, dim,
                           pooling, slots, rows, values)
    accumulatePooledGradScalar(batch, keys, dy, dim, pooling, slots, rows,
                               values);
}

void
sgdRows(float* table, std::size_t dim, const uint64_t* rows,
        std::size_t nrows, const float* values, float lr)
{
    RECSIM_SPARSE_DISPATCH(sgdRows, table, dim, rows, nrows, values, lr)
    sgdRowsScalar(table, dim, rows, nrows, values, lr);
}

void
adagradRows(float* table, std::size_t dim, const uint64_t* rows,
            std::size_t nrows, const float* values, float* acc, float lr,
            float eps)
{
    RECSIM_SPARSE_DISPATCH(adagradRows, table, dim, rows, nrows, values,
                           acc, lr, eps)
    adagradRowsScalar(table, dim, rows, nrows, values, acc, lr, eps);
}

void
adagradDense(float* p, const float* g, float* acc, std::size_t n,
             float lr, float eps)
{
    RECSIM_SPARSE_DISPATCH(adagradDense, p, g, acc, n, lr, eps)
    adagradDenseScalar(p, g, acc, n, lr, eps);
}

std::size_t
dotScratchFloats(std::size_t f, std::size_t d)
{
    // Row-block loads of the transposed copy run up to kDotRows + one
    // AVX-512 vector past its last row; what they read there only
    // feeds lanes that are never stored.
    return d * f + 64;
}

void
dotForward(const float* const* feats, std::size_t f, std::size_t b,
           std::size_t d, float* out, std::size_t out_stride,
           float* transposed)
{
    RECSIM_SPARSE_DISPATCH(dotForward, feats, f, b, d, out, out_stride,
                           transposed)
    (void)transposed;  // only the vector tiers transpose
    dotForwardScalar(feats, f, b, d, out, out_stride);
}

void
dotBackward(const float* const* feats, float* const* dfeats,
            std::size_t f, std::size_t b, std::size_t d,
            const float* pairs, const float* passthrough,
            std::size_t pairs_stride)
{
    RECSIM_SPARSE_DISPATCH(dotBackward, feats, dfeats, f, b, d, pairs,
                           passthrough, pairs_stride)
    dotBackwardScalar(feats, dfeats, f, b, d, pairs, passthrough,
                      pairs_stride);
}

#undef RECSIM_SPARSE_DISPATCH

} // namespace kernels
} // namespace nn
} // namespace recsim
