/**
 * @file
 * Tier sweep of the sparse-half kernels (nn/sparse_kernels.h), through
 * the public layers that run them: EmbeddingBag forward (Sum and Mean,
 * empty examples included) and backward, the sparse SGD and row-wise
 * Adagrad updates, and DotInteraction forward, backward and
 * backwardFused. Each runs at every SIMD tier this CPU has, at 1 and 4
 * threads, and must match the scalar tier at 1 thread bit for bit.
 *
 * Dims 16 and 64 fill whole AVX-512 / AVX2 vectors, 20 leaves a masked
 * tail and 100 spans two register blocks plus a tail. Inputs are random
 * normals and Mean pooling divides by lengths that are not powers of
 * two, so nearly every product is inexact: a vector tier that fused a
 * multiply-then-add into an fma would round differently and fail here.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "nn/embedding_bag.h"
#include "nn/interaction.h"
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
