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
#include <memory>
#include <string>
#include <vector>

namespace recsim {
namespace util {
class Rng;
} // namespace util

namespace tensor {

/** The transparent huge page size mapHugePages aligns to. */
inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/**
 * Tensor storage at or above this many bytes is its own 2 MiB-aligned
 * anonymous mapping advised MADV_HUGEPAGE before first touch, so a
 * large embedding table sits on 2 MiB pages and a random row access
 * costs one TLB entry per 2 MiB, not per 4 KiB. Below it storage comes
 * from std::allocator as for any vector.
 *
 * 32 MiB is glibc malloc's largest dynamic mmap threshold on 64-bit:
 * it serves every request this large from a fresh mmap of the same
 * length, so taking them over adds no RSS. A smaller request may reuse
 * freed heap memory instead, and a private mapping for it raises peak
 * RSS (the serving replica's 3.9 MB interaction buffers added 3 MB of
 * peak at a 2 MiB threshold).
 *
 * Under AddressSanitizer every allocation goes to std::allocator:
 * ASan puts redzones only around heap blocks, so a table in a private
 * mapping would lose the bounds checks the sanitizer build runs for.
 */
#if defined(__SANITIZE_ADDRESS__)
inline constexpr std::size_t kMapThresholdBytes = ~std::size_t{0};
#else
inline constexpr std::size_t kMapThresholdBytes = std::size_t{32} << 20;
#endif

/** Map @p bytes as described above: kHugePageBytes-aligned, exactly
 *  @p bytes rounded up to the base page long, zero-filled. Throws
 *  std::bad_alloc when the mapping fails. */
void* mapHugePages(std::size_t bytes);

/** Release a mapping made by mapHugePages(@p bytes). */
void unmapHugePages(void* p, std::size_t bytes);

/** Tensor's storage allocator: std::allocator below
 *  kMapThresholdBytes, mapHugePages at or above it. Stateless, so
 *  moves stay O(1). */
template <typename T>
struct StorageAllocator
{
    using value_type = T;

    StorageAllocator() = default;
    template <typename U>
    StorageAllocator(const StorageAllocator<U>&) {}

    T* allocate(std::size_t n)
    {
        if (n * sizeof(T) < kMapThresholdBytes)
            return std::allocator<T>().allocate(n);
        return static_cast<T*>(mapHugePages(n * sizeof(T)));
    }

    void deallocate(T* p, std::size_t n)
    {
        if (n * sizeof(T) < kMapThresholdBytes)
            std::allocator<T>().deallocate(p, n);
        else
            unmapHugePages(p, n * sizeof(T));
    }

    template <typename U>
    bool operator==(const StorageAllocator<U>&) const { return true; }
};

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
    std::vector<float, StorageAllocator<float>> data_;
    int rank_ = 1;
    std::size_t rows_ = 0;
    std::size_t cols_ = 1;
};

} // namespace tensor
} // namespace recsim
