/**
 * @file
 * Minimal dense FP32 tensor for the functional training substrate.
 *
 * This replaces the Caffe2/PyTorch tensor the paper's production stack
 * uses. recsim only needs what DLRM training needs: 1-D and 2-D row-major
 * float tensors with matmul, elementwise ops and reductions. Shapes are
 * checked with panic() since shape errors are library bugs, not user
 * configuration errors.
 */
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

namespace recsim {
namespace util {
class Rng;
} // namespace util

namespace tensor {

/**
 * Owning, row-major FP32 tensor of rank 1 or 2.
 *
 * A rank-1 tensor of length n is distinct from a [1, n] matrix; matmul
 * requires rank 2. Copy is deep; move is O(1).
 */
class Tensor
{
  public:
    /** Empty rank-1 tensor of size 0. */
    Tensor() = default;

    /** Zero-initialized rank-1 tensor of length @p n. */
    explicit Tensor(std::size_t n);

    /** Zero-initialized rank-2 tensor of shape [rows, cols]. */
    Tensor(std::size_t rows, std::size_t cols);

    /** Rank-1 tensor from explicit values. */
    Tensor(std::initializer_list<float> values);

    /** Number of elements. */
    std::size_t size() const { return rows_ * cols_; }

    /** Rank (1 or 2). */
    int rank() const { return rank_; }

    /** Rows for rank 2; size() for rank 1. */
    std::size_t rows() const { return rows_; }

    /** Cols for rank 2; 1 for rank 1. */
    std::size_t cols() const { return cols_; }

    float* data() { return data_.data(); }
    const float* data() const { return data_.data(); }

    /** Element access, rank-1. */
    float& operator[](std::size_t i) { return data_[i]; }
    float operator[](std::size_t i) const { return data_[i]; }

    /** Element access, rank-2 (row-major). */
    float& at(std::size_t r, std::size_t c);
    float at(std::size_t r, std::size_t c) const;

    /** Pointer to the start of row @p r (rank-2). */
    float* row(std::size_t r);
    const float* row(std::size_t r) const;

    /** Set every element to @p value. */
    void fill(float value);

    /** Set every element to 0. */
    void zero() { fill(0.0f); }

    /** Fill with N(0, stddev) values from @p rng. */
    void fillNormal(util::Rng& rng, float stddev);

    /** Fill with U(lo, hi) values from @p rng. */
    void fillUniform(util::Rng& rng, float lo, float hi);

    /** Reshape in place; element count must be preserved. */
    void reshape(std::size_t rows, std::size_t cols);

    /**
     * Become a zeroed rank-2 tensor of shape [rows, cols], reusing the
     * existing allocation when capacity suffices. The workspace-reuse
     * primitive: kernels call this instead of constructing a fresh
     * Tensor so steady-state training does no per-step heap allocation.
     */
    void resize(std::size_t rows, std::size_t cols);

    /** Become a zeroed rank-1 tensor of length n, reusing capacity. */
    void resize(std::size_t n);

    /**
     * Become a rank-2 tensor of shape [rows, cols] without zeroing:
     * elements keep whatever the storage held. Storage never shrinks
     * here, so once a shape has been reached, later calls up to it
     * write nothing (growth past it is zero-filled once). For kernels
     * that write every element before reading it.
     */
    void resizeUninitialized(std::size_t rows, std::size_t cols);

    /** "[rows x cols]" / "[n]" for diagnostics. */
    std::string shapeString() const;

    /** True iff shapes (rank and dims) match. */
    bool sameShape(const Tensor& other) const;

  private:
    /** Storage; at least size() long (longer only after a shrinking
     *  resizeUninitialized). */
    std::vector<float> data_;
    int rank_ = 1;
    std::size_t rows_ = 0;
    std::size_t cols_ = 1;
};

} // namespace tensor
} // namespace recsim
