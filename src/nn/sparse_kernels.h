/**
 * @file
 * The per-element loops of the sparse half of a training step —
 * embedding gather/pool, the single-pass embedding backward, the
 * row-wise sparse optimizers and the pairwise dot interaction — plus
 * the dense Adagrad update, with one scalar reference loop and AVX2 /
 * AVX-512 versions behind the tensor::simd tier dispatch. Each entry
 * point dispatches once per call (per table, per tensor), never per
 * lookup or row.
 *
 * Dispatch contract (the one tensor/ops.cc keeps for the GEMMs): every
 * tier runs each output element's exact scalar operation sequence, so
 * switching tiers never changes a bit. The vector tiers only spread
 * independent elements over lanes:
 *
 *  - gatherPool: out[j] = ((out[j] + e_0[j]) + e_1[j]) + ... in lookup
 *    order, then one multiply by 1/n for Mean pooling. Lanes = j.
 *  - accumulatePooledGrad: v[j] = v[j] + (scale * dy[j]) per lookup in
 *    batch order (multiply, then add — never an fma). Lanes = j. A
 *    row's first touch writes v[j] = 0.0f + (scale * dy[j]) instead of
 *    reading the row, which is the same bits as zero-filling it first
 *    (−0.0 becomes +0.0 either way), so the gradient block needs no
 *    zero fill before the pass.
 *  - sgdRows: w[j] = w[j] - (lr * g[j]). Lanes = j.
 *  - adagradRows: sq = ((0 + g_0*g_0) + g_1*g_1) + ... in ascending j
 *    for each row — lanes run across 8 or 16 rows, never within one
 *    row — then acc += sq / dim, denom = sqrt(acc) + eps and
 *    w[j] = w[j] - ((lr * g[j]) / denom). Lanes = j for the update.
 *  - adagradDense: acc[i] = acc[i] + (g[i] * g[i]), then
 *    p[i] = p[i] - ((lr * g[i]) / (sqrt(acc[i]) + eps)). Lanes = i;
 *    vector square root and divide are correctly rounded, like the
 *    scalar ones.
 *  - dotForward: pair (i, j) = ((0 + a_0*b_0) + a_1*b_1) + ... in
 *    ascending k; lanes run across the pairs of one row i through a
 *    per-example transposed [d x F] copy of the F vectors.
 *  - dotBackward: dv_x[k] = init + g(x,m) * v_m[k] for every other
 *    feature m in ascending order, skipping g == 0 — the order the
 *    reference pair loop reaches dv_x in. Lanes = k.
 *
 * Dims that are not a multiple of the lane width use masked tails. The
 * libraries build with -ffp-contract=off, so a written multiply-then-
 * add is never fused into an fma behind the code's back. The gather
 * and the optimizers prefetch the table rows (and Adagrad
 * accumulators) a few lookups ahead; prefetches change no value.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/embedding_bag.h"

namespace recsim {
namespace nn {
namespace kernels {

/**
 * Gather-and-pool examples [e0, e1) of @p batch from the row-major
 * [hash, dim] table into @p out ([B, dim], rows e0..e1 pre-zeroed).
 */
void gatherPool(const float* table, uint64_t hash, std::size_t dim,
                Pooling pooling, const SparseBatch& batch, float* out,
                std::size_t e0, std::size_t e1);

/**
 * Embedding backward in one pass: walks the lookups of @p batch in
 * batch order, finds each reduced id keys[k] in @p slots (begun for
 * this batch), and adds scale * dy[example] to its row of @p values
 * ([slots, dim]); scale is 1 for Sum and 1/n for Mean pooling. A key
 * seen for the first time gets the next slot, is appended to @p rows
 * (first-touch order) and has its row initialized, not read (see the
 * contract above). @p values needs room for one row per lookup; rows
 * past rows.size() are left unwritten.
 */
void accumulatePooledGrad(const SparseBatch& batch, const uint64_t* keys,
                          const float* dy, std::size_t dim,
                          Pooling pooling, FlatSlotMap& slots,
                          std::vector<uint64_t>& rows, float* values);

/** Sparse SGD: table row rows[r] -= lr * values row r, r ascending. */
void sgdRows(float* table, std::size_t dim, const uint64_t* rows,
             std::size_t nrows, const float* values, float lr);

/**
 * Row-wise Adagrad against the one-per-row accumulator @p acc, rows in
 * ascending r (duplicate row ids are applied in that order too).
 */
void adagradRows(float* table, std::size_t dim, const uint64_t* rows,
                 std::size_t nrows, const float* values, float* acc,
                 float lr, float eps);

/**
 * Dense Adagrad over @p n parameters, each with its own accumulator:
 * acc[i] += g[i]^2, then p[i] -= lr * g[i] / (sqrt(acc[i]) + eps).
 */
void adagradDense(float* p, const float* g, float* acc, std::size_t n,
                  float lr, float eps);

/**
 * Pairwise dot products of F = @p f feature vectors per example:
 * feature i of example ex is feats[i] + ex * d. For every example,
 * writes the F*(F-1)/2 products (i < j, row-major) to
 * out + ex * out_stride. @p transposed holds at least
 * dotScratchFloats(f, d) floats (contents ignored on entry).
 */
void dotForward(const float* const* feats, std::size_t f, std::size_t b,
                std::size_t d, float* out, std::size_t out_stride,
                float* transposed);

/** Scratch floats dotForward needs for @p f features of width @p d. */
std::size_t dotScratchFloats(std::size_t f, std::size_t d);

/**
 * Dot-interaction backward scatter: for every example, accumulates
 * g(i,j) * feats[j] into dfeats[i] and g(i,j) * feats[i] into
 * dfeats[j] for each pair with g != 0, where g(i,j) is read from
 * @p pairs + ex * pairs_stride in forward's pair order. When
 * @p passthrough is non-null, passthrough + ex * pairs_stride is first
 * added to dfeats[0] (the dense copy's gradient). dfeats rows are
 * accumulated into, not overwritten.
 */
void dotBackward(const float* const* feats, float* const* dfeats,
                 std::size_t f, std::size_t b, std::size_t d,
                 const float* pairs, const float* passthrough,
                 std::size_t pairs_stride);

} // namespace kernels
} // namespace nn
} // namespace recsim
