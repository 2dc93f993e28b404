#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "tensor/simd.h"
#include "util/logging.h"
#include "util/thread_pool.h"

/** Non-aliasing pointer hint for the GEMM inner loops. */
#if defined(__GNUC__) || defined(__clang__)
#  define RECSIM_RESTRICT __restrict__
#else
#  define RECSIM_RESTRICT
#endif

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#  define RECSIM_SIMD_X86 1
#  include <immintrin.h>
#endif

namespace recsim {
namespace tensor {

namespace {

void
requireRank2(const Tensor& t, const char* what)
{
    RECSIM_ASSERT(t.rank() == 2, "{} requires rank-2 tensor, got {}",
                  what, t.shapeString());
}

/**
 * Cache-blocking factors. A kKc-deep slice of one packed B strip
 * (kKc x kNr floats, 16 KiB) stays in L1 across the row tiles of a
 * chunk; kNc output columns (2 KiB per row) are swept per k-panel.
 * Fixed constants, not tuned per shape: blocking only changes *which*
 * terms are in cache, never the order terms are added per output
 * element (the fma fold documented in ops.h), so results are
 * bit-identical to an unblocked loop following the same contract.
 */
constexpr std::size_t kKc = 128;
constexpr std::size_t kNc = 512;

/** Minimum per-chunk work so chunk dispatch never dominates. */
constexpr std::size_t kMinWorkPerChunk = std::size_t(1) << 15;
/** Elementwise kernels: elements per chunk. */
constexpr std::size_t kElemGrain = std::size_t(1) << 14;

/** Rows per chunk targeting kMinWorkPerChunk scalar ops per chunk. */
std::size_t
rowGrain(std::size_t work_per_row)
{
    return std::max<std::size_t>(
        1, kMinWorkPerChunk / std::max<std::size_t>(work_per_row, 1));
}

/**
 * Packed-B strip width. gemmBlocked copies B once per call into strips
 * of kNr columns: the strip starting at column j0 (a multiple of kNr)
 * is a row-major [k, kNr] block at packed + j0 * k, zero-padded past
 * column n. Every tier reads this layout — an AVX-512 tile spans a
 * whole strip, an AVX2 tile one 16-column half, the scalar kernel the
 * strip's valid columns.
 */
constexpr std::size_t kNr = 32;

/** Register-tile heights: AVX-512 8 x 32 (16 zmm accumulators). */
constexpr std::size_t kMrAvx512 = 8;
/** AVX2 6 x 16 (12 ymm accumulators). */
constexpr std::size_t kMrAvx2 = 6;

/**
 * GEMM row chunks hold up to kChunkTiles register tiles, so each B
 * strip slice brought into L1 serves several tiles (what keeps a B
 * larger than L2 fast), but are never so tall that m splits into
 * fewer than kMinChunks chunks for the pool to spread.
 */
constexpr std::size_t kChunkTiles = 4;
constexpr std::size_t kMinChunks = 16;

/**
 * GEMMs of less work run their row chunks on the caller. Work is
 * 2mk times n rounded up to whole kNr strips, which is what the
 * kernels compute: on the 4-core AVX-512 host the pool's fork/join
 * made 128^3 (4.2 M) 0.5-0.6x of serial, 160^3 (8.2 M) and
 * 256x256x64 (8.4 M) 0.9x, while 192^3 (14.2 M) gained 1.1-1.5x,
 * 512x256x36 (16.8 M as strips) 2.4x and 256^3 1.4-1.6x.
 */
constexpr std::size_t kParallelGemmFlops = std::size_t(10) << 20;

/**
 * The right operand as addressed in memory: B(p, j) = d[p * rs + j * cs].
 * Row-major B has cs = 1; the transpose of a row-major [n, k] matrix
 * (matmulTransB's b) has rs = 1, cs = k.
 */
struct BView
{
    const float* d;
    std::size_t rs;
    std::size_t cs;
};

/** One GEMM call's operands, shared read-only by every row chunk. */
struct GemmArgs
{
    const float* a;      ///< A(i, p) = a[i * a_rs + p * a_cs]
    std::size_t a_rs;
    std::size_t a_cs;
    const float* packed; ///< B in kNr-column strips (packB)
    float* out;          ///< [m, n] row-major
    std::size_t n;
    std::size_t k;
    const float* bias;   ///< last-panel bias epilogue, or nullptr
    bool relu;
    const float* mask;   ///< last-panel dReLU mask [m, n], or nullptr
};

/**
 * Copy B into kNr-column strips, once per GEMM call, for every row
 * chunk to read. Row-major B is copied strip row by strip row;
 * transposed B is gathered from its contiguous columns in the same
 * pass, so matmulTransB needs no separate transpose. Strips pack in
 * parallel, one chunk owning whole strips.
 *
 * When @p col_sum is non-null it also receives, on top of its current
 * value, B's column sums (the fused bias gradient: B is dy in the grad
 * GEMM). Each column adds its rows in increasing p with plain float
 * adds — sumRows' serial per-column sequence — so the result is
 * bitwise identical to a separate sumRows(dy, db) at any thread count.
 *
 * The buffer is per thread (concurrent trainer threads never share it)
 * and persistent (the steady-state training loop reuses it instead of
 * allocating); it stays valid until the calling thread's next GEMM.
 */
const float*
packB(BView b, std::size_t k, std::size_t n, float* col_sum)
{
    thread_local std::vector<float> tl_packed;
    const std::size_t strips = (n + kNr - 1) / kNr;
    // 16 floats of slack to start the strips on a 64-byte boundary.
    tl_packed.resize(strips * k * kNr + 16);
    const auto base = reinterpret_cast<std::uintptr_t>(tl_packed.data());
    float* packed = tl_packed.data() + ((64 - base % 64) % 64) / 4;
    util::globalThreadPool().parallelFor(
        0, strips, rowGrain(k * kNr),
        [=](std::size_t s0, std::size_t s1) {
            for (std::size_t s = s0; s < s1; ++s) {
                const std::size_t j0 = s * kNr;
                const std::size_t w = std::min(kNr, n - j0);
                const float* RECSIM_RESTRICT src = b.d + j0 * b.cs;
                float* RECSIM_RESTRICT dst = packed + j0 * k;
                float* RECSIM_RESTRICT sums =
                    col_sum != nullptr ? col_sum + j0 : nullptr;
                for (std::size_t p = 0; p < k; ++p) {
                    const float* RECSIM_RESTRICT bp = src + p * b.rs;
                    float* RECSIM_RESTRICT row = dst + p * kNr;
                    if (b.cs == 1)
                        std::copy(bp, bp + w, row);
                    else
                        for (std::size_t u = 0; u < w; ++u)
                            row[u] = bp[u * b.cs];
                    std::fill(row + w, row + kNr, 0.0f);
                    if (sums != nullptr)
                        for (std::size_t u = 0; u < w; ++u)
                            sums[u] += row[u];
                }
            }
        });
    return packed;
}

/**
 * Scalar GEMM kernel, the portable fallback and the reference every
 * vector tier matches. For rows [i0, i1), the valid columns of the
 * packed strip at column @p j0 and the k-panel [pp, pp + pk):
 * out[i, j] (+)= sum over the panel of fma(A(i, p), B(p, j), acc).
 *
 * Accumulation-order contract (shared with every tier): per output
 * element the accumulator starts from the value in out, adds terms in
 * increasing p, each as one fused multiply-add (std::fma here ==
 * vfmadd there: both correctly rounded), and stores once per k-panel.
 * In the last k-panel a non-null bias adds bias[j] (one plain add)
 * and, if relu, takes std::max(acc, 0.0f) — exactly the per-element
 * ops of addBiasRows + reluInPlace, NaN included; a non-null mask then
 * keeps acc where mask[i, j] > 0 and writes +0.0f otherwise — the
 * exact ternary reluBackward would apply to the stored value.
 */
void
stripScalar(const GemmArgs& g, std::size_t i0, std::size_t i1,
            std::size_t j0, std::size_t pp, std::size_t pk)
{
    const std::size_t w = std::min(kNr, g.n - j0);
    const bool last = pp + pk == g.k;
    const float* RECSIM_RESTRICT bs = g.packed + j0 * g.k + pp * kNr;
    for (std::size_t i = i0; i < i1; ++i) {
        const float* RECSIM_RESTRICT ai = g.a + i * g.a_rs + pp * g.a_cs;
        float* RECSIM_RESTRICT orow = g.out + i * g.n + j0;
        float acc[kNr];
        for (std::size_t u = 0; u < w; ++u)
            acc[u] = orow[u];
        for (std::size_t p = 0; p < pk; ++p) {
            const float av = ai[p * g.a_cs];
            const float* RECSIM_RESTRICT brow = bs + p * kNr;
            for (std::size_t u = 0; u < w; ++u)
                acc[u] = std::fma(av, brow[u], acc[u]);
        }
        if (last && g.bias != nullptr) {
            for (std::size_t u = 0; u < w; ++u) {
                acc[u] += g.bias[j0 + u];
                if (g.relu)
                    acc[u] = std::max(acc[u], 0.0f);
            }
        }
        if (last && g.mask != nullptr) {
            const float* RECSIM_RESTRICT mrow = g.mask + i * g.n + j0;
            for (std::size_t u = 0; u < w; ++u)
                acc[u] = mrow[u] > 0.0f ? acc[u] : 0.0f;
        }
        for (std::size_t u = 0; u < w; ++u)
            orow[u] = acc[u];
    }
}

#if defined(RECSIM_SIMD_X86)

/** All-ones in the first @p w (<= 8) lanes, for maskload/maskstore. */
__attribute__((target("avx2,fma"))) inline __m256i
laneMaskAvx2(std::size_t w)
{
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(w)),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/**
 * AVX2 register tile: R rows x 16 columns (two ymm per row, 2 B loads
 * shared by the R rows per k step) at row @p i and column @p j, with
 * @p bs the tile's columns in the packed strip (row stride kNr). Lanes
 * outside @p m0 / @p m1 load as 0 and are never stored. Same
 * per-element contract as stripScalar: the ReLU is max(zero, acc),
 * which returns acc when acc is NaN or -0.0 — std::max(acc, 0.0f) —
 * and the dReLU mask is a > 0 compare ANDed into acc (acc's exact bits
 * or +0.0f per lane).
 */
template <std::size_t R>
__attribute__((target("avx2,fma"))) void
tileAvx2(const GemmArgs& g, std::size_t i, std::size_t j,
         const float* RECSIM_RESTRICT bs, std::size_t pp, std::size_t pk,
         __m256i m0, __m256i m1, bool last)
{
    const float* RECSIM_RESTRICT ai = g.a + i * g.a_rs + pp * g.a_cs;
    float* RECSIM_RESTRICT o = g.out + i * g.n + j;
    const std::size_t n = g.n;
    __m256 acc[R][2];
    for (std::size_t r = 0; r < R; ++r) {
        acc[r][0] = _mm256_maskload_ps(o + r * n, m0);
        acc[r][1] = _mm256_maskload_ps(o + r * n + 8, m1);
    }
    for (std::size_t p = 0; p < pk; ++p) {
        const __m256 b0 = _mm256_loadu_ps(bs + p * kNr);
        const __m256 b1 = _mm256_loadu_ps(bs + p * kNr + 8);
        for (std::size_t r = 0; r < R; ++r) {
            const __m256 av =
                _mm256_broadcast_ss(ai + r * g.a_rs + p * g.a_cs);
            acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
            acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
        }
    }
    const __m256 zero = _mm256_setzero_ps();
    if (last && g.bias != nullptr) {
        const __m256 bv0 = _mm256_maskload_ps(g.bias + j, m0);
        const __m256 bv1 = _mm256_maskload_ps(g.bias + j + 8, m1);
        for (std::size_t r = 0; r < R; ++r) {
            acc[r][0] = _mm256_add_ps(acc[r][0], bv0);
            acc[r][1] = _mm256_add_ps(acc[r][1], bv1);
            if (g.relu) {
                acc[r][0] = _mm256_max_ps(zero, acc[r][0]);
                acc[r][1] = _mm256_max_ps(zero, acc[r][1]);
            }
        }
    }
    if (last && g.mask != nullptr) {
        for (std::size_t r = 0; r < R; ++r) {
            const float* RECSIM_RESTRICT mrow = g.mask + (i + r) * n + j;
            acc[r][0] = _mm256_and_ps(
                _mm256_cmp_ps(_mm256_maskload_ps(mrow, m0), zero,
                              _CMP_GT_OQ),
                acc[r][0]);
            acc[r][1] = _mm256_and_ps(
                _mm256_cmp_ps(_mm256_maskload_ps(mrow + 8, m1), zero,
                              _CMP_GT_OQ),
                acc[r][1]);
        }
    }
    for (std::size_t r = 0; r < R; ++r) {
        _mm256_maskstore_ps(o + r * n, m0, acc[r][0]);
        _mm256_maskstore_ps(o + r * n + 8, m1, acc[r][1]);
    }
}

/** The R-row AVX2 tile for a row tail of @p rows (< kMrAvx2) rows. */
template <std::size_t R>
__attribute__((target("avx2,fma"))) void
tailAvx2(std::size_t rows, const GemmArgs& g, std::size_t i,
         std::size_t j, const float* bs, std::size_t pp, std::size_t pk,
         __m256i m0, __m256i m1, bool last)
{
    if (rows == R)
        tileAvx2<R>(g, i, j, bs, pp, pk, m0, m1, last);
    else if constexpr (R > 1)
        tailAvx2<R - 1>(rows, g, i, j, bs, pp, pk, m0, m1, last);
}

/** AVX2 tier: stripScalar's contract in kMrAvx2 x 16 tiles. */
__attribute__((target("avx2,fma"))) void
stripAvx2(const GemmArgs& g, std::size_t i0, std::size_t i1,
          std::size_t j0, std::size_t pp, std::size_t pk)
{
    const std::size_t w = std::min(kNr, g.n - j0);
    const bool last = pp + pk == g.k;
    for (std::size_t h = 0; h < w; h += 16) {
        const std::size_t wh = std::min<std::size_t>(16, w - h);
        const __m256i m0 = laneMaskAvx2(std::min<std::size_t>(wh, 8));
        const __m256i m1 = laneMaskAvx2(wh > 8 ? wh - 8 : 0);
        const float* bs = g.packed + j0 * g.k + pp * kNr + h;
        std::size_t i = i0;
        for (; i + kMrAvx2 <= i1; i += kMrAvx2)
            tileAvx2<kMrAvx2>(g, i, j0 + h, bs, pp, pk, m0, m1, last);
        if (i < i1)
            tailAvx2<kMrAvx2 - 1>(i1 - i, g, i, j0 + h, bs, pp, pk, m0,
                                  m1, last);
    }
}

/**
 * AVX-512 register tile: R rows x 32 columns — one whole packed strip,
 * two zmm per row, 2 B loads shared by the R rows per k step. Columns
 * outside @p m0 / @p m1 load as 0 and are never stored. Same
 * per-element contract as stripScalar: ReLU is max(zero, acc) (acc on
 * NaN and on ±0 ties — std::max(acc, 0.0f); the maskz form avoids
 * GCC 12's -Wmaybe-uninitialized inside _mm512_max_ps), and the dReLU
 * mask keeps acc's bits where mask > 0, +0.0f elsewhere.
 */
template <std::size_t R>
__attribute__((target("avx512f"))) void
tileAvx512(const GemmArgs& g, std::size_t i, std::size_t j0,
           const float* RECSIM_RESTRICT bs, std::size_t pp,
           std::size_t pk, __mmask16 m0, __mmask16 m1, bool last)
{
    const float* RECSIM_RESTRICT ai = g.a + i * g.a_rs + pp * g.a_cs;
    float* RECSIM_RESTRICT o = g.out + i * g.n + j0;
    const std::size_t n = g.n;
    __m512 acc[R][2];
    for (std::size_t r = 0; r < R; ++r) {
        acc[r][0] = _mm512_maskz_loadu_ps(m0, o + r * n);
        acc[r][1] = _mm512_maskz_loadu_ps(m1, o + r * n + 16);
    }
    for (std::size_t p = 0; p < pk; ++p) {
        const __m512 b0 = _mm512_loadu_ps(bs + p * kNr);
        const __m512 b1 = _mm512_loadu_ps(bs + p * kNr + 16);
        for (std::size_t r = 0; r < R; ++r) {
            const __m512 av = _mm512_set1_ps(ai[r * g.a_rs + p * g.a_cs]);
            acc[r][0] = _mm512_fmadd_ps(av, b0, acc[r][0]);
            acc[r][1] = _mm512_fmadd_ps(av, b1, acc[r][1]);
        }
    }
    const __m512 zero = _mm512_setzero_ps();
    if (last && g.bias != nullptr) {
        const __m512 bv0 = _mm512_maskz_loadu_ps(m0, g.bias + j0);
        const __m512 bv1 = _mm512_maskz_loadu_ps(m1, g.bias + j0 + 16);
        for (std::size_t r = 0; r < R; ++r) {
            acc[r][0] = _mm512_add_ps(acc[r][0], bv0);
            acc[r][1] = _mm512_add_ps(acc[r][1], bv1);
            if (g.relu) {
                acc[r][0] = _mm512_maskz_max_ps(0xFFFF, zero, acc[r][0]);
                acc[r][1] = _mm512_maskz_max_ps(0xFFFF, zero, acc[r][1]);
            }
        }
    }
    if (last && g.mask != nullptr) {
        for (std::size_t r = 0; r < R; ++r) {
            const float* RECSIM_RESTRICT mrow = g.mask + (i + r) * n + j0;
            acc[r][0] = _mm512_maskz_mov_ps(
                _mm512_cmp_ps_mask(_mm512_maskz_loadu_ps(m0, mrow), zero,
                                   _CMP_GT_OQ),
                acc[r][0]);
            acc[r][1] = _mm512_maskz_mov_ps(
                _mm512_cmp_ps_mask(_mm512_maskz_loadu_ps(m1, mrow + 16),
                                   zero, _CMP_GT_OQ),
                acc[r][1]);
        }
    }
    for (std::size_t r = 0; r < R; ++r) {
        _mm512_mask_storeu_ps(o + r * n, m0, acc[r][0]);
        _mm512_mask_storeu_ps(o + r * n + 16, m1, acc[r][1]);
    }
}

/** The R-row AVX-512 tile for a row tail of @p rows (< kMrAvx512). */
template <std::size_t R>
__attribute__((target("avx512f"))) void
tailAvx512(std::size_t rows, const GemmArgs& g, std::size_t i,
           std::size_t j0, const float* bs, std::size_t pp,
           std::size_t pk, __mmask16 m0, __mmask16 m1, bool last)
{
    if (rows == R)
        tileAvx512<R>(g, i, j0, bs, pp, pk, m0, m1, last);
    else if constexpr (R > 1)
        tailAvx512<R - 1>(rows, g, i, j0, bs, pp, pk, m0, m1, last);
}

/** AVX-512 tier: stripScalar's contract in kMrAvx512 x 32 tiles. */
__attribute__((target("avx512f"))) void
stripAvx512(const GemmArgs& g, std::size_t i0, std::size_t i1,
            std::size_t j0, std::size_t pp, std::size_t pk)
{
    const std::size_t w = std::min(kNr, g.n - j0);
    const bool last = pp + pk == g.k;
    const auto lanes = [](std::size_t c) {
        return static_cast<__mmask16>(c >= 16 ? 0xFFFFu
                                              : (1u << c) - 1u);
    };
    const __mmask16 m0 = lanes(std::min<std::size_t>(w, 16));
    const __mmask16 m1 = lanes(w > 16 ? w - 16 : 0);
    const float* bs = g.packed + j0 * g.k + pp * kNr;
    std::size_t i = i0;
    for (; i + kMrAvx512 <= i1; i += kMrAvx512)
        tileAvx512<kMrAvx512>(g, i, j0, bs, pp, pk, m0, m1, last);
    if (i < i1)
        tailAvx512<kMrAvx512 - 1>(i1 - i, g, i, j0, bs, pp, pk, m0, m1,
                                  last);
}

/**
 * Column-tiled row reduction: 32-column register tiles accumulated
 * across all rows before one store, instead of a read-modify-write of
 * od per (row, column). Each column still adds its rows in increasing
 * i with plain float adds — the exact per-element ops of the scalar
 * loop — so the paths are bitwise interchangeable.
 */
__attribute__((target("avx2"))) void
sumRowsAvx2(const float* RECSIM_RESTRICT xd, float* RECSIM_RESTRICT od,
            std::size_t rows, std::size_t cols, std::size_t j0,
            std::size_t j1)
{
    std::size_t j = j0;
    for (; j + 32 <= j1; j += 32) {
        __m256 acc0 = _mm256_loadu_ps(od + j);
        __m256 acc1 = _mm256_loadu_ps(od + j + 8);
        __m256 acc2 = _mm256_loadu_ps(od + j + 16);
        __m256 acc3 = _mm256_loadu_ps(od + j + 24);
        for (std::size_t i = 0; i < rows; ++i) {
            const float* RECSIM_RESTRICT row = xd + i * cols + j;
            acc0 = _mm256_add_ps(acc0, _mm256_loadu_ps(row));
            acc1 = _mm256_add_ps(acc1, _mm256_loadu_ps(row + 8));
            acc2 = _mm256_add_ps(acc2, _mm256_loadu_ps(row + 16));
            acc3 = _mm256_add_ps(acc3, _mm256_loadu_ps(row + 24));
        }
        _mm256_storeu_ps(od + j, acc0);
        _mm256_storeu_ps(od + j + 8, acc1);
        _mm256_storeu_ps(od + j + 16, acc2);
        _mm256_storeu_ps(od + j + 24, acc3);
    }
    for (; j + 8 <= j1; j += 8) {
        __m256 acc = _mm256_loadu_ps(od + j);
        for (std::size_t i = 0; i < rows; ++i)
            acc = _mm256_add_ps(acc,
                                _mm256_loadu_ps(xd + i * cols + j));
        _mm256_storeu_ps(od + j, acc);
    }
    for (; j < j1; ++j) {
        float acc = od[j];
        for (std::size_t i = 0; i < rows; ++i)
            acc += xd[i * cols + j];
        od[j] = acc;
    }
}

#endif // RECSIM_SIMD_X86

/**
 * Scalar twin of sumRowsAvx2: od[j] += sum over rows of xd[i, j],
 * rows added in increasing i per column.
 */
void
sumRowsScalar(const float* RECSIM_RESTRICT xd,
              float* RECSIM_RESTRICT od, std::size_t rows,
              std::size_t cols, std::size_t j0, std::size_t j1)
{
    for (std::size_t i = 0; i < rows; ++i) {
        const float* RECSIM_RESTRICT row = xd + i * cols;
        for (std::size_t j = j0; j < j1; ++j)
            od[j] += row[j];
    }
}

/**
 * The shared GEMM core: od[m, n] (+)= A[m, k] * B[k, n], with
 * A(i, p) = ad[i * a_rs + p * a_cs] (matmul: a_rs = k, a_cs = 1;
 * matmulTransA: a_rs = 1, a_cs = m) and B addressed by @p b. B is
 * packed once (packB, which also folds @p col_sum), then row chunks
 * sweep kNc column blocks, kKc k-panels and kNr strips, running the
 * active tier's register tiles down the chunk's rows. od must be
 * zeroed (or hold the value being accumulated into). A non-null
 * @p bias runs the bias(+relu) epilogue and a non-null @p mask the
 * dReLU mask inside the final k-panel store. Per output element the k
 * terms are added in increasing p, one fma each (see ops.h contract),
 * so packing, blocking, register tiling, tier and threading change
 * nothing bitwise.
 */
void
gemmBlocked(const float* ad, std::size_t a_rs, std::size_t a_cs,
            BView b, float* od, std::size_t m, std::size_t k,
            std::size_t n, const float* bias = nullptr,
            bool relu = false, const float* mask = nullptr,
            float* col_sum = nullptr)
{
    using StripKernel = void (*)(const GemmArgs&, std::size_t,
                                 std::size_t, std::size_t, std::size_t,
                                 std::size_t);
    StripKernel kernel = stripScalar;
    std::size_t tile_rows = 1;
#if defined(RECSIM_SIMD_X86)
    switch (simd::activeTier()) {
    case simd::Tier::kAvx512:
        kernel = stripAvx512;
        tile_rows = kMrAvx512;
        break;
    case simd::Tier::kAvx2:
        kernel = stripAvx2;
        tile_rows = kMrAvx2;
        break;
    case simd::Tier::kScalar:
        break;
    }
#endif
    const GemmArgs g{ad, a_rs, a_cs, packB(b, k, n, col_sum), od, n, k,
                     bias, relu, mask};
    // Whole register tiles per chunk; grain only changes which rows
    // share a chunk, never the result.
    const std::size_t rows =
        std::max({rowGrain(2 * k * n),
                  std::min(kChunkTiles * tile_rows, m / kMinChunks),
                  tile_rows});
    const std::size_t grain = (rows + tile_rows - 1) / tile_rows * tile_rows;
    const auto chunk = [&g, kernel](std::size_t i0, std::size_t i1) {
        for (std::size_t jj = 0; jj < g.n; jj += kNc) {
            const std::size_t jend = std::min(g.n, jj + kNc);
            for (std::size_t pp = 0; pp < g.k; pp += kKc) {
                const std::size_t pk = std::min(kKc, g.k - pp);
                for (std::size_t j0 = jj; j0 < jend; j0 += kNr)
                    kernel(g, i0, i1, j0, pp, pk);
            }
        }
    };
    const std::size_t strip_cols = (n + kNr - 1) / kNr * kNr;
    if (2 * m * k * strip_cols >= kParallelGemmFlops) {
        util::globalThreadPool().parallelFor(0, m, grain, chunk);
        return;
    }
    for (std::size_t i0 = 0; i0 < m; i0 += grain)
        chunk(i0, std::min(m, i0 + grain));
}

} // namespace

void
matmul(const Tensor& a, const Tensor& b, Tensor& out)
{
    requireRank2(a, "matmul");
    requireRank2(b, "matmul");
    RECSIM_ASSERT(a.cols() == b.rows(), "matmul {} x {}",
                  a.shapeString(), b.shapeString());
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    out.resize(m, n);
    gemmBlocked(a.data(), k, 1, {b.data(), n, 1}, out.data(), m, k, n);
}

void
matmulBiasAct(const Tensor& a, const Tensor& b, const Tensor& bias,
              bool relu, Tensor& out)
{
    requireRank2(a, "matmulBiasAct");
    requireRank2(b, "matmulBiasAct");
    RECSIM_ASSERT(a.cols() == b.rows(), "matmulBiasAct {} x {}",
                  a.shapeString(), b.shapeString());
    RECSIM_ASSERT(bias.size() == b.cols(), "bias {} for {}",
                  bias.shapeString(), b.shapeString());
    const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
    out.resize(m, n);
    gemmBlocked(a.data(), k, 1, {b.data(), n, 1}, out.data(), m, k, n,
                bias.data(), relu);
}

void
matmulTransA(const Tensor& a, const Tensor& b, Tensor& out)
{
    requireRank2(a, "matmulTransA");
    requireRank2(b, "matmulTransA");
    RECSIM_ASSERT(a.rows() == b.rows(), "matmulTransA {} x {}",
                  a.shapeString(), b.shapeString());
    const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
    out.resize(m, n);
    // a is [k, m]: a tile's rows are contiguous per p.
    gemmBlocked(a.data(), 1, m, {b.data(), n, 1}, out.data(), m, k, n);
}

void
matmulTransB(const Tensor& a, const Tensor& b, Tensor& out)
{
    matmulTransBMask(a, b, nullptr, out);
}

void
matmulTransBMask(const Tensor& a, const Tensor& b, const Tensor* mask,
                 Tensor& out)
{
    requireRank2(a, "matmulTransBMask");
    requireRank2(b, "matmulTransBMask");
    RECSIM_ASSERT(a.cols() == b.cols(), "matmulTransBMask {} x {}",
                  a.shapeString(), b.shapeString());
    const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
    if (mask != nullptr)
        RECSIM_ASSERT(mask->rows() == m && mask->cols() == n,
                      "matmulTransBMask mask {} for [{} x {}] output",
                      mask->shapeString(), m, n);
    out.resize(m, n);
    // b is [n, k]: packB gathers its rows as B's columns.
    gemmBlocked(a.data(), k, 1, {b.data(), 1, k}, out.data(), m, k, n,
                /*bias=*/nullptr, /*relu=*/false,
                mask != nullptr ? mask->data() : nullptr);
}

void
matmulTransABiasGrad(const Tensor& x, const Tensor& dy, Tensor& dw,
                     Tensor& db)
{
    requireRank2(x, "matmulTransABiasGrad");
    requireRank2(dy, "matmulTransABiasGrad");
    RECSIM_ASSERT(x.rows() == dy.rows(), "matmulTransABiasGrad {} x {}",
                  x.shapeString(), dy.shapeString());
    const std::size_t k = x.rows(), m = x.cols(), n = dy.cols();
    dw.resize(m, n);
    if (db.size() != n || db.rank() != 1)
        db.resize(n);
    else
        db.zero();
    gemmBlocked(x.data(), 1, m, {dy.data(), n, 1}, dw.data(), m, k, n,
                /*bias=*/nullptr, /*relu=*/false, /*mask=*/nullptr,
                db.data());
}

void
matmulTransBSegmented(const Tensor& a, const Tensor& b,
                      std::vector<GemmOutSegment>& segments)
{
    requireRank2(a, "matmulTransBSegmented");
    requireRank2(b, "matmulTransBSegmented");
    RECSIM_ASSERT(a.cols() == b.cols(), "matmulTransBSegmented {} x {}",
                  a.shapeString(), b.shapeString());
    const std::size_t m = a.rows(), k = a.cols();
    std::size_t total = 0;
    for (const GemmOutSegment& seg : segments)
        total += seg.width;
    RECSIM_ASSERT(total == b.rows(),
                  "matmulTransBSegmented widths sum to {}, b has {} "
                  "rows", total, b.rows());
    // The zero bias reproduces a consumer that zero-initializes its
    // buffer and then += the GEMM result: acc + 0.0f == 0.0f + acc
    // bitwise (both give +0.0f when acc is -0.0f).
    thread_local Tensor tl_zero_bias;
    std::size_t c0 = 0;
    for (GemmOutSegment& seg : segments) {
        const std::size_t w = seg.width;
        seg.out->resize(m, w);
        const float* zb = nullptr;
        if (seg.zero_bias) {
            tl_zero_bias.resize(w);
            zb = tl_zero_bias.data();
        }
        gemmBlocked(a.data(), k, 1, {b.data() + c0 * k, 1, k},
                    seg.out->data(), m, k, w, zb);
        c0 += w;
    }
}

void
addBiasRows(Tensor& x, const Tensor& bias)
{
    requireRank2(x, "addBiasRows");
    RECSIM_ASSERT(bias.size() == x.cols(), "bias {} for {}",
                  bias.shapeString(), x.shapeString());
    const std::size_t cols = x.cols();
    float* RECSIM_RESTRICT xd = x.data();
    const float* RECSIM_RESTRICT bd = bias.data();
    util::globalThreadPool().parallelFor(
        0, x.rows(), rowGrain(cols),
        [=](std::size_t i0, std::size_t i1) {
            for (std::size_t i = i0; i < i1; ++i) {
                float* RECSIM_RESTRICT row = xd + i * cols;
                for (std::size_t j = 0; j < cols; ++j)
                    row[j] += bd[j];
            }
        });
}

void
sumRows(const Tensor& x, Tensor& out)
{
    requireRank2(x, "sumRows");
    if (out.size() != x.cols() || out.rank() != 1)
        out.resize(x.cols());
    else
        out.zero();
    const std::size_t rows = x.rows(), cols = x.cols();
    const float* RECSIM_RESTRICT xd = x.data();
    float* RECSIM_RESTRICT od = out.data();
    // Parallel over *columns*: each output element is owned by one
    // chunk and accumulates in row order, identical to the serial loop.
    util::globalThreadPool().parallelFor(
        0, cols, rowGrain(rows),
        [=](std::size_t j0, std::size_t j1) {
#if defined(RECSIM_SIMD_X86)
            if (simd::activeTier() >= simd::Tier::kAvx2) {
                sumRowsAvx2(xd, od, rows, cols, j0, j1);
                return;
            }
#endif
            sumRowsScalar(xd, od, rows, cols, j0, j1);
        });
}

void
axpy(float alpha, const Tensor& x, Tensor& y)
{
    RECSIM_ASSERT(x.size() == y.size(), "axpy {} into {}",
                  x.shapeString(), y.shapeString());
    const float* RECSIM_RESTRICT xd = x.data();
    float* RECSIM_RESTRICT yd = y.data();
    util::globalThreadPool().parallelFor(
        0, x.size(), kElemGrain,
        [=](std::size_t i0, std::size_t i1) {
            for (std::size_t i = i0; i < i1; ++i)
                yd[i] += alpha * xd[i];
        });
}

void
scale(Tensor& x, float alpha)
{
    float* RECSIM_RESTRICT xd = x.data();
    util::globalThreadPool().parallelFor(
        0, x.size(), kElemGrain,
        [=](std::size_t i0, std::size_t i1) {
            for (std::size_t i = i0; i < i1; ++i)
                xd[i] *= alpha;
        });
}

void
reluInPlace(Tensor& x)
{
    float* RECSIM_RESTRICT xd = x.data();
    util::globalThreadPool().parallelFor(
        0, x.size(), kElemGrain,
        [=](std::size_t i0, std::size_t i1) {
            for (std::size_t i = i0; i < i1; ++i)
                xd[i] = std::max(xd[i], 0.0f);
        });
}

void
reluBackward(const Tensor& y, const Tensor& dy, Tensor& dx)
{
    RECSIM_ASSERT(y.size() == dy.size(), "reluBackward shape mismatch");
    if (!dx.sameShape(dy)) {
        if (dy.rank() == 2)
            dx.resize(dy.rows(), dy.cols());
        else
            dx.resize(dy.size());
    }
    const float* RECSIM_RESTRICT yd = y.data();
    const float* RECSIM_RESTRICT dyd = dy.data();
    float* RECSIM_RESTRICT dxd = dx.data();
    util::globalThreadPool().parallelFor(
        0, y.size(), kElemGrain,
        [=](std::size_t i0, std::size_t i1) {
            simd::reluMaskSpan(yd + i0, dyd + i0, dxd + i0, i1 - i0);
        });
}

void
sigmoidInPlace(Tensor& x)
{
    float* RECSIM_RESTRICT xd = x.data();
    // Full elementwise grain (the libm-exp version used a quarter of
    // it because each element cost a libm call; the fast exp is ~20x
    // cheaper). Grain only changes chunk boundaries, and the kernel is
    // elementwise, so results are unchanged by the grain choice.
    util::globalThreadPool().parallelFor(
        0, x.size(), kElemGrain,
        [=](std::size_t i0, std::size_t i1) {
            simd::sigmoidSpan(xd + i0, i1 - i0);
        });
}

double
sumAll(const Tensor& x)
{
    double acc = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i)
        acc += x.data()[i];
    return acc;
}

double
dot(const Tensor& a, const Tensor& b)
{
    RECSIM_ASSERT(a.size() == b.size(), "dot {} . {}", a.shapeString(),
                  b.shapeString());
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        acc += static_cast<double>(a.data()[i]) * b.data()[i];
    return acc;
}

double
l2Norm(const Tensor& x)
{
    return std::sqrt(dot(x, x));
}

double
maxAbsDiff(const Tensor& a, const Tensor& b)
{
    RECSIM_ASSERT(a.size() == b.size(), "maxAbsDiff {} vs {}",
                  a.shapeString(), b.shapeString());
    double worst = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        worst = std::max(worst, std::abs(
            static_cast<double>(a.data()[i]) - b.data()[i]));
    return worst;
}

void
clipL2Norm(Tensor& x, double max_norm)
{
    RECSIM_ASSERT(max_norm > 0.0, "clip norm must be positive");
    const double norm = l2Norm(x);
    if (norm > max_norm)
        scale(x, static_cast<float>(max_norm / norm));
}

} // namespace tensor
} // namespace recsim
