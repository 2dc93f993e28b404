#include "nn/interaction.h"

#include <cstring>

#include "nn/sparse_kernels.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace recsim {
namespace nn {

std::size_t
CatInteraction::outWidth(std::size_t dense_width, std::size_t num_sparse,
                         std::size_t emb_dim)
{
    return dense_width + num_sparse * emb_dim;
}

void
CatInteraction::forward(const tensor::Tensor& dense,
                        const std::vector<tensor::Tensor>& embs,
                        tensor::Tensor& out) const
{
    RECSIM_TRACE_SPAN("nn.cat.fwd");
    const std::size_t b = dense.rows();
    std::size_t width = dense.cols();
    for (const auto& e : embs) {
        RECSIM_ASSERT(e.rows() == b, "cat interaction batch mismatch");
        width += e.cols();
    }
    if (out.rank() != 2 || out.rows() != b || out.cols() != width)
        out = tensor::Tensor(b, width);
    for (std::size_t ex = 0; ex < b; ++ex) {
        float* orow = out.row(ex);
        std::memcpy(orow, dense.row(ex), dense.cols() * sizeof(float));
        std::size_t off = dense.cols();
        for (const auto& e : embs) {
            std::memcpy(orow + off, e.row(ex), e.cols() * sizeof(float));
            off += e.cols();
        }
    }
}

void
CatInteraction::backward(const tensor::Tensor& dense,
                         const std::vector<tensor::Tensor>& embs,
                         const tensor::Tensor& dy, tensor::Tensor& d_dense,
                         std::vector<tensor::Tensor>& d_embs) const
{
    RECSIM_TRACE_SPAN("nn.cat.bwd");
    const std::size_t b = dense.rows();
    RECSIM_ASSERT(dy.rows() == b, "cat backward batch mismatch");
    if (!d_dense.sameShape(dense))
        d_dense = tensor::Tensor(b, dense.cols());
    d_embs.resize(embs.size());
    for (std::size_t s = 0; s < embs.size(); ++s) {
        if (!d_embs[s].sameShape(embs[s]))
            d_embs[s] = tensor::Tensor(b, embs[s].cols());
    }
    for (std::size_t ex = 0; ex < b; ++ex) {
        const float* dyrow = dy.row(ex);
        std::memcpy(d_dense.row(ex), dyrow,
                    dense.cols() * sizeof(float));
        std::size_t off = dense.cols();
        for (std::size_t s = 0; s < embs.size(); ++s) {
            std::memcpy(d_embs[s].row(ex), dyrow + off,
                        embs[s].cols() * sizeof(float));
            off += embs[s].cols();
        }
    }
}

std::size_t
DotInteraction::outWidth(std::size_t num_sparse, std::size_t emb_dim)
{
    const std::size_t f = num_sparse + 1;
    return emb_dim + f * (f - 1) / 2;
}

void
DotInteraction::bindFeatures(const tensor::Tensor& dense,
                             const std::vector<tensor::Tensor>& embs,
                             tensor::Tensor* d_dense,
                             std::vector<tensor::Tensor>* d_embs) const
{
    const std::size_t f = embs.size() + 1;
    scratch_.feats.resize(f);
    scratch_.feats[0] = dense.data();
    for (std::size_t s = 0; s < embs.size(); ++s)
        scratch_.feats[s + 1] = embs[s].data();
    if (d_dense == nullptr)
        return;
    scratch_.dfeats.resize(f);
    scratch_.dfeats[0] = d_dense->data();
    for (std::size_t s = 0; s < embs.size(); ++s)
        scratch_.dfeats[s + 1] = (*d_embs)[s].data();
}

void
DotInteraction::forward(const tensor::Tensor& dense,
                        const std::vector<tensor::Tensor>& embs,
                        tensor::Tensor& out) const
{
    RECSIM_TRACE_SPAN("nn.dot.fwd");
    const std::size_t b = dense.rows();
    const std::size_t d = dense.cols();
    const std::size_t f = embs.size() + 1;
    for (const auto& e : embs)
        RECSIM_ASSERT(e.rows() == b && e.cols() == d,
                      "dot interaction needs [B, d] embeddings");
    const std::size_t width = outWidth(embs.size(), d);
    if (out.rank() != 2 || out.rows() != b || out.cols() != width)
        out = tensor::Tensor(b, width);
    if (b == 0)
        return;

    // Slot 0 of the F vectors is the dense projection, copied through
    // ahead of the pairwise products.
    for (std::size_t ex = 0; ex < b; ++ex)
        std::memcpy(out.row(ex), dense.row(ex), d * sizeof(float));
    bindFeatures(dense, embs, nullptr, nullptr);
    const std::size_t scratch = kernels::dotScratchFloats(f, d);
    if (scratch_.transposed.size() < scratch)
        scratch_.transposed.resize(scratch);
    kernels::dotForward(scratch_.feats.data(), f, b, d, out.data() + d,
                        width, scratch_.transposed.data());
}

void
DotInteraction::backward(const tensor::Tensor& dense,
                         const std::vector<tensor::Tensor>& embs,
                         const tensor::Tensor& dy, tensor::Tensor& d_dense,
                         std::vector<tensor::Tensor>& d_embs) const
{
    RECSIM_TRACE_SPAN("nn.dot.bwd");
    const std::size_t b = dense.rows();
    const std::size_t d = dense.cols();
    const std::size_t f = embs.size() + 1;
    RECSIM_ASSERT(dy.rows() == b &&
                  dy.cols() == outWidth(embs.size(), d),
                  "dot backward dy {}", dy.shapeString());
    if (!d_dense.sameShape(dense))
        d_dense = tensor::Tensor(b, d);
    d_dense.zero();
    d_embs.resize(embs.size());
    for (std::size_t s = 0; s < embs.size(); ++s) {
        if (!d_embs[s].sameShape(embs[s]))
            d_embs[s] = tensor::Tensor(b, d);
        d_embs[s].zero();
    }
    if (b == 0)
        return;

    // dy's first d columns are the dense pass-through, the rest the
    // pairwise slots.
    bindFeatures(dense, embs, &d_dense, &d_embs);
    kernels::dotBackward(scratch_.feats.data(), scratch_.dfeats.data(), f,
                         b, d, dy.data() + d, dy.data(), dy.cols());
}

void
DotInteraction::backwardFused(const tensor::Tensor& dense,
                              const std::vector<tensor::Tensor>& embs,
                              const tensor::Tensor& d_pairs,
                              tensor::Tensor& d_dense,
                              std::vector<tensor::Tensor>& d_embs) const
{
    RECSIM_TRACE_SPAN("nn.dot.bwd");
    const std::size_t b = dense.rows();
    const std::size_t d = dense.cols();
    const std::size_t f = embs.size() + 1;
    RECSIM_ASSERT(d_pairs.rows() == b &&
                  d_pairs.cols() == f * (f - 1) / 2,
                  "dot fused backward d_pairs {}", d_pairs.shapeString());
    // d_dense was written by the GEMM's zero-bias segment and is only
    // accumulated into here; the pairwise g values arrive compacted in
    // d_pairs with the same bits the flatten buffer's tail columns
    // would carry, so the g == 0 skip and every += match backward().
    RECSIM_ASSERT(d_dense.sameShape(dense),
                  "dot fused backward d_dense {}", d_dense.shapeString());
    d_embs.resize(embs.size());
    for (std::size_t s = 0; s < embs.size(); ++s) {
        if (!d_embs[s].sameShape(embs[s]))
            d_embs[s] = tensor::Tensor(b, d);
        d_embs[s].zero();
    }
    if (b == 0)
        return;

    bindFeatures(dense, embs, &d_dense, &d_embs);
    kernels::dotBackward(scratch_.feats.data(), scratch_.dfeats.data(), f,
                         b, d, d_pairs.data(), nullptr, d_pairs.cols());
}

} // namespace nn
} // namespace recsim
