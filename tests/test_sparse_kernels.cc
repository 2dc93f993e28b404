/**
 * @file
 * Tier sweep of the sparse-half kernels (nn/sparse_kernels.h), through
 * the public layers that run them: EmbeddingBag forward (Sum and Mean,
 * empty examples included) and backward, the sparse SGD and row-wise
 * Adagrad updates, the dense Adagrad update, and DotInteraction
 * forward, backward and backwardFused. Each runs at every SIMD tier
 * this CPU has, at 1 and 4 threads, and must match the scalar tier at
 * 1 thread bit for bit; the embedding backward and dense Adagrad are
 * also held to test-local definitions of what they compute.
 *
 * Dims 16 and 64 fill whole AVX-512 / AVX2 vectors, 20 leaves a masked
 * tail and 100 spans two register blocks plus a tail. Inputs are random
 * normals and Mean pooling divides by lengths that are not powers of
 * two, so nearly every product is inexact: a vector tier that fused a
 * multiply-then-add into an fma would round differently and fail here.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "nn/embedding_bag.h"
#include "nn/interaction.h"
#include "nn/optimizer.h"
#include "tensor/simd.h"
#include "tensor/tensor.h"
#include "util/random.h"
#include "util/thread_pool.h"

using namespace recsim;
using nn::EmbeddingBag;
using nn::Pooling;
using nn::SparseBatch;
using nn::SparseGrad;
using tensor::Tensor;
namespace simd = tensor::simd;

namespace {

constexpr std::size_t kDims[] = {16, 20, 64, 100};
constexpr uint64_t kHash = 211;
constexpr std::size_t kBatch = 37;

/** Restores the global pool size when a test exits. */
struct PoolSizeGuard
{
    ~PoolSizeGuard()
    {
        util::globalThreadPool().resize(util::configuredThreads());
    }
};

bool
sameBits(const Tensor& a, const Tensor& b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool
sameBits(const std::vector<float>& a, const std::vector<float>& b)
{
    return a.size() == b.size() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/**
 * Runs @p check at every tier the CPU has and at 1 and 4 threads, the
 * scalar tier at 1 thread included; @p check gets a context string.
 */
void
forEveryTier(const std::function<void(const std::string&)>& check)
{
    PoolSizeGuard guard;
    for (int t = 0; t <= static_cast<int>(simd::supportedTier()); ++t) {
        const auto tier = static_cast<simd::Tier>(t);
        simd::ScopedTierOverride force(tier);
        for (const std::size_t threads : {1u, 4u}) {
            util::globalThreadPool().resize(threads);
            check(std::string(simd::tierName(tier)) + " @" +
                  std::to_string(threads) + "t");
        }
    }
}

/** The scalar tier at 1 thread: the reference every sweep compares to. */
template <typename F>
void
scalarReference(F&& fn)
{
    PoolSizeGuard guard;
    util::globalThreadPool().resize(1);
    simd::ScopedTierOverride force(simd::Tier::kScalar);
    fn();
}

/**
 * kBatch examples of 0..9 raw ids over 4x the hash space; every fifth
 * example is empty, so Mean pooling sees n = 0 and non-power-of-two n.
 */
SparseBatch
randomBatch(util::Rng& rng)
{
    SparseBatch batch;
    batch.offsets.push_back(0);
    for (std::size_t ex = 0; ex < kBatch; ++ex) {
        const std::size_t n = ex % 5 == 0 ? 0 : 1 + rng.uniformInt(9);
        for (std::size_t k = 0; k < n; ++k)
            batch.indices.push_back(rng.uniformInt(4 * kHash));
        batch.offsets.push_back(batch.indices.size());
    }
    return batch;
}

Tensor
randomTensor(std::size_t rows, std::size_t cols, uint64_t seed)
{
    util::Rng rng(seed);
    Tensor t(rows, cols);
    t.fillNormal(rng, 1.0f);
    return t;
}

EmbeddingBag
makeBag(std::size_t dim, Pooling pooling)
{
    util::Rng rng(7);
    return EmbeddingBag(kHash, dim, rng, pooling);
}

std::string
shape(std::size_t dim, Pooling pooling)
{
    return " dim " + std::to_string(dim) +
        (pooling == Pooling::Mean ? " mean" : " sum");
}

} // namespace

TEST(SparseKernels, EmbeddingForwardBitwiseAtEveryTier)
{
    for (const Pooling pooling : {Pooling::Sum, Pooling::Mean}) {
        for (const std::size_t dim : kDims) {
            util::Rng rng(dim);
            const SparseBatch batch = randomBatch(rng);
            const EmbeddingBag bag = makeBag(dim, pooling);
            Tensor want;
            scalarReference([&] { bag.forward(batch, want); });
            forEveryTier([&](const std::string& ctx) {
                Tensor got;
                bag.forward(batch, got);
                EXPECT_TRUE(sameBits(got, want))
                    << ctx << shape(dim, pooling);
            });
        }
    }
}

TEST(SparseKernels, EmbeddingBackwardBitwiseAtEveryTier)
{
    for (const Pooling pooling : {Pooling::Sum, Pooling::Mean}) {
        for (const std::size_t dim : kDims) {
            util::Rng rng(dim + 1);
            const SparseBatch batch = randomBatch(rng);
            const EmbeddingBag bag = makeBag(dim, pooling);
            const Tensor dy = randomTensor(kBatch, dim, dim);
            SparseGrad want;
            scalarReference([&] { bag.backward(batch, dy, want); });
            forEveryTier([&](const std::string& ctx) {
                SparseGrad got;
                bag.backward(batch, dy, got);
                EXPECT_EQ(got.rows, want.rows) << ctx;
                EXPECT_TRUE(sameBits(got.values, want.values))
                    << ctx << shape(dim, pooling);
            });
        }
    }
}

TEST(SparseKernels, SgdAndAdagradBitwiseAtEveryTier)
{
    for (const std::size_t dim : kDims) {
        util::Rng rng(dim + 2);
        const SparseBatch batch = randomBatch(rng);
        SparseGrad grad;
        scalarReference([&] {
            makeBag(dim, Pooling::Mean)
                .backward(batch, randomTensor(kBatch, dim, dim), grad);
        });
        // Enough touched rows for full 8- and 16-row Adagrad groups
        // plus a partial one.
        ASSERT_GT(grad.rows.size(), 16u);
        ASSERT_NE(grad.rows.size() % 16, 0u);
        std::vector<float> acc0(kHash);
        for (auto& a : acc0)
            a = static_cast<float>(rng.uniform(0.0, 2.0));

        // Two updates each, so the second Adagrad step reads an
        // accumulator the first one wrote.
        auto update = [&](EmbeddingBag& sgd, EmbeddingBag& adagrad,
                          std::vector<float>& acc) {
            for (int step = 0; step < 2; ++step) {
                sgd.applySgd(grad, 0.01f);
                adagrad.applyAdagrad(grad, acc, 0.01f, 1e-8f);
            }
        };
        EmbeddingBag want_sgd = makeBag(dim, Pooling::Mean);
        EmbeddingBag want_adagrad = makeBag(dim, Pooling::Mean);
        std::vector<float> want_acc = acc0;
        scalarReference(
            [&] { update(want_sgd, want_adagrad, want_acc); });
        forEveryTier([&](const std::string& ctx) {
            EmbeddingBag sgd = makeBag(dim, Pooling::Mean);
            EmbeddingBag adagrad = makeBag(dim, Pooling::Mean);
            std::vector<float> acc = acc0;
            update(sgd, adagrad, acc);
            const std::string where = ctx + " dim " + std::to_string(dim);
            EXPECT_TRUE(sameBits(sgd.table, want_sgd.table)) << where;
            EXPECT_TRUE(sameBits(adagrad.table, want_adagrad.table))
                << where;
            EXPECT_TRUE(sameBits(acc, want_acc)) << where;
        });
    }
}

TEST(SparseKernels, DotInteractionBitwiseAtEveryTier)
{
    const nn::DotInteraction dot;
    for (const std::size_t sparse : {std::size_t(3), std::size_t(26)}) {
        for (const std::size_t d : kDims) {
            const Tensor dense = randomTensor(kBatch, d, 100 + d);
            std::vector<Tensor> embs;
            for (std::size_t s = 0; s < sparse; ++s)
                embs.push_back(randomTensor(kBatch, d, 200 + d * 31 + s));
            const std::size_t width =
                nn::DotInteraction::outWidth(sparse, d);
            // Upstream gradient with exact zeros (the g == 0 skip) and
            // negative zeros mixed in.
            Tensor dy = randomTensor(kBatch, width, 300 + d);
            for (std::size_t i = 0; i < dy.size(); ++i) {
                if (i % 7 == 0)
                    dy.data()[i] = 0.0f;
                else if (i % 11 == 0)
                    dy.data()[i] = -0.0f;
            }
            Tensor d_pairs(kBatch, width - d);
            Tensor fused_seed(kBatch, d);
            for (std::size_t ex = 0; ex < kBatch; ++ex) {
                std::memcpy(d_pairs.row(ex), dy.row(ex) + d,
                            (width - d) * sizeof(float));
                std::memcpy(fused_seed.row(ex), dy.row(ex),
                            d * sizeof(float));
            }

            Tensor want_out, want_dd, want_fdd = fused_seed;
            std::vector<Tensor> want_de, want_fde;
            scalarReference([&] {
                dot.forward(dense, embs, want_out);
                dot.backward(dense, embs, dy, want_dd, want_de);
                dot.backwardFused(dense, embs, d_pairs, want_fdd,
                                  want_fde);
            });
            forEveryTier([&](const std::string& ctx) {
                const std::string where = ctx + " S " +
                    std::to_string(sparse) + " d " + std::to_string(d);
                Tensor out, dd, fdd = fused_seed;
                std::vector<Tensor> de, fde;
                dot.forward(dense, embs, out);
                EXPECT_TRUE(sameBits(out, want_out)) << where;
                dot.backward(dense, embs, dy, dd, de);
                dot.backwardFused(dense, embs, d_pairs, fdd, fde);
                EXPECT_TRUE(sameBits(dd, want_dd)) << where;
                EXPECT_TRUE(sameBits(fdd, want_fdd)) << where;
                for (std::size_t s = 0; s < sparse; ++s) {
                    EXPECT_TRUE(sameBits(de[s], want_de[s]))
                        << where << " emb " << s;
                    EXPECT_TRUE(sameBits(fde[s], want_fde[s]))
                        << where << " fused emb " << s;
                }
            });
        }
    }
}

namespace {

/**
 * The definition backward() must reproduce bit for bit: rows in
 * first-touch order over the lookups inside examples, a zero-filled
 * [rows, dim] block, then + scale * dy once per lookup in batch order.
 */
SparseGrad
zeroFillReference(const SparseBatch& batch, const Tensor& dy,
                  uint64_t hash, Pooling pooling)
{
    SparseGrad want;
    std::vector<std::size_t> slot_of_k;
    const std::size_t b = batch.batchSize();
    for (std::size_t k = 0; b > 0 && k < batch.offsets[b]; ++k) {
        const uint64_t row = batch.indices[k] % hash;
        std::size_t s = 0;
        while (s < want.rows.size() && want.rows[s] != row)
            ++s;
        if (s == want.rows.size())
            want.rows.push_back(row);
        slot_of_k.push_back(s);
    }
    const std::size_t dim = dy.cols();
    want.values.resize(want.rows.size(), dim);
    for (std::size_t ex = 0; ex < b; ++ex) {
        const std::size_t begin = batch.offsets[ex];
        const std::size_t end = batch.offsets[ex + 1];
        const float scale = pooling == Pooling::Mean && end > begin
            ? 1.0f / static_cast<float>(end - begin) : 1.0f;
        for (std::size_t k = begin; k < end; ++k) {
            float* v = want.values.row(slot_of_k[k]);
            for (std::size_t j = 0; j < dim; ++j)
                v[j] += scale * dy.at(ex, j);
        }
    }
    return want;
}

/** Every tier the CPU has at pool sizes 1, 2 and 4. */
void
forEveryTierAndPool(const std::function<void(const std::string&)>& check)
{
    PoolSizeGuard guard;
    for (int t = 0; t <= static_cast<int>(simd::supportedTier()); ++t) {
        const auto tier = static_cast<simd::Tier>(t);
        simd::ScopedTierOverride force(tier);
        for (const std::size_t threads : {1u, 2u, 4u}) {
            util::globalThreadPool().resize(threads);
            check(std::string(simd::tierName(tier)) + " @" +
                  std::to_string(threads) + "t");
        }
    }
}

} // namespace

TEST(SparseKernels, EmbeddingBackwardEqualsZeroFillThenAdd)
{
    // Example 0 repeats row 5 (raw 5, 5 + hash, 5 + 3 * hash) and
    // touches row 3; example 1 is empty; example 2 is the only toucher
    // of row 9, with dy holding -0.0 (a first touch must give +0.0, as
    // 0 + -0 does, and nothing later may hide it); example 3 revisits
    // rows 3 and 5 and touches new ones; the rest are random with
    // every fifth example empty.
    util::Rng rng(11);
    SparseBatch batch;
    batch.indices = {5, 5 + kHash, 3, 5 + 3 * kHash, 9, 3, 17, 5, 4 * kHash};
    batch.offsets = {0, 4, 4, 5, 9};
    for (std::size_t ex = 4; ex < kBatch; ++ex) {
        const std::size_t n = ex % 5 == 0 ? 0 : 1 + rng.uniformInt(9);
        for (std::size_t k = 0; k < n; ++k) {
            const uint64_t id = rng.uniformInt(4 * kHash);
            batch.indices.push_back(id % kHash == 9 ? id + 1 : id);
        }
        batch.offsets.push_back(batch.indices.size());
    }
    for (const Pooling pooling : {Pooling::Sum, Pooling::Mean}) {
        for (const std::size_t dim : kDims) {
            Tensor dy = randomTensor(kBatch, dim, 40 + dim);
            for (std::size_t j = 0; j < dim; j += 3)
                dy.at(2, j) = -0.0f;
            dy.at(0, 1) = -0.0f;
            const SparseGrad want =
                zeroFillReference(batch, dy, kHash, pooling);
            ASSERT_EQ(want.rows.front(), 5u);
            ASSERT_EQ(want.rows[2], 9u);
            ASSERT_EQ(std::count(want.rows.begin(), want.rows.end(), 9u), 1);
            ASSERT_FALSE(std::signbit(want.values.at(2, 0)));
            const EmbeddingBag bag = makeBag(dim, pooling);
            forEveryTierAndPool([&](const std::string& ctx) {
                // Reused across calls, as in training: a larger
                // previous gradient must not leak into this one.
                SparseGrad got;
                bag.backward(batch, randomTensor(kBatch, dim, 1), got);
                bag.backward(batch, dy, got);
                EXPECT_EQ(got.rows, want.rows) << ctx;
                EXPECT_TRUE(sameBits(got.values, want.values))
                    << ctx << shape(dim, pooling);
                EXPECT_EQ(got.values.size(), want.rows.size() * dim);
            });
        }
    }
}

TEST(SparseKernels, EmbeddingBackwardOfEmptyBatchesHasNoRows)
{
    const EmbeddingBag bag = makeBag(20, Pooling::Mean);
    SparseBatch all_empty;
    all_empty.offsets = {0, 0, 0, 0};
    SparseBatch no_examples;
    no_examples.offsets = {0};
    forEveryTierAndPool([&](const std::string& ctx) {
        SparseGrad grad;
        util::Rng rng(5);
        bag.backward(randomBatch(rng), randomTensor(kBatch, 20, 2), grad);
        ASSERT_FALSE(grad.rows.empty());
        bag.backward(all_empty, Tensor(3, 20), grad);
        EXPECT_TRUE(grad.rows.empty()) << ctx;
        EXPECT_EQ(grad.values.rows(), 0u) << ctx;
        EXPECT_EQ(grad.values.cols(), 20u) << ctx;
        bag.backward(no_examples, Tensor(0, 20), grad);
        EXPECT_TRUE(grad.rows.empty()) << ctx;
        EXPECT_EQ(grad.values.size(), 0u) << ctx;
    });
}

TEST(SparseKernels, DenseAdagradEqualsScalarLoopAtEveryTier)
{
    constexpr float kLr = 0.03f, kEps = 1e-8f;
    for (const std::size_t n : {1u, 15u, 17u, 513u}) {
        const Tensor p0 = randomTensor(1, n, 60 + n);
        const Tensor g0 = randomTensor(1, n, 70 + n);
        Tensor g1 = randomTensor(1, n, 80 + n);
        g1.data()[0] = -0.0f;
        // Two steps of the loop Adagrad::step is defined by, so the
        // second reads an accumulator the first one wrote.
        std::vector<float> want_p(p0.data(), p0.data() + n);
        std::vector<float> want_acc(n, 0.0f);
        for (const Tensor* g : {&g0, static_cast<const Tensor*>(&g1)}) {
            for (std::size_t i = 0; i < n; ++i) {
                const float gi = g->data()[i];
                want_acc[i] += gi * gi;
                want_p[i] -= kLr * gi / (std::sqrt(want_acc[i]) + kEps);
            }
        }
        forEveryTier([&](const std::string& ctx) {
            Tensor p = p0;
            nn::Adagrad opt(kLr, kEps);
            opt.step(p, g0);
            opt.step(p, g1);
            const std::string where = ctx + " n " + std::to_string(n);
            EXPECT_TRUE(sameBits(std::vector<float>(p.data(), p.data() + n),
                                 want_p))
                << where;
            EXPECT_TRUE(sameBits(opt.denseState(p), want_acc)) << where;
        });
    }
}
