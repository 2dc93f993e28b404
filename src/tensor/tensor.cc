#include "tensor/tensor.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <new>
#include <span>

#include "util/logging.h"
#include "util/random.h"

namespace recsim {
namespace tensor {

namespace {

std::size_t
mappedLength(std::size_t bytes)
{
    static const std::size_t page =
        static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    return (bytes + page - 1) / page * page;
}

} // namespace

void*
mapHugePages(std::size_t bytes)
{
    const std::size_t len = mappedLength(bytes);
    // Over-map by one huge page, then trim the head to a 2 MiB
    // boundary and the tail to len: no rounding up of the length, so
    // RSS is what a heap block of this size would have.
    if (len < bytes || len > ~std::size_t{0} - kHugePageBytes)
        throw std::bad_alloc();
    void* raw = mmap(nullptr, len + kHugePageBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED)
        throw std::bad_alloc();
    const auto base = reinterpret_cast<std::uintptr_t>(raw);
    const std::uintptr_t start =
        (base + kHugePageBytes - 1) & ~(std::uintptr_t{kHugePageBytes} - 1);
    if (start > base)
        munmap(raw, start - base);
    const std::uintptr_t end = base + len + kHugePageBytes;
    if (end > start + len)
        munmap(reinterpret_cast<void*>(start + len), end - start - len);
    // Best effort: where THP is off the range stays on base pages.
    madvise(reinterpret_cast<void*>(start), len, MADV_HUGEPAGE);
    return reinterpret_cast<void*>(start);
}

void
unmapHugePages(void* p, std::size_t bytes)
{
    munmap(p, mappedLength(bytes));
}

Tensor::Tensor(std::size_t n)
    : data_(n, 0.0f), rank_(1), rows_(n), cols_(1)
{
}

Tensor::Tensor(std::size_t rows, std::size_t cols)
    : data_(rows * cols, 0.0f), rank_(2), rows_(rows), cols_(cols)
{
}

Tensor::Tensor(std::initializer_list<float> values)
    : data_(values), rank_(1), rows_(values.size()), cols_(1)
{
}

float&
Tensor::at(std::size_t r, std::size_t c)
{
    RECSIM_ASSERT(rank_ == 2 && r < rows_ && c < cols_,
                  "at({}, {}) on tensor {}", r, c, shapeString());
    return data_[r * cols_ + c];
}

float
Tensor::at(std::size_t r, std::size_t c) const
{
    RECSIM_ASSERT(rank_ == 2 && r < rows_ && c < cols_,
                  "at({}, {}) on tensor {}", r, c, shapeString());
    return data_[r * cols_ + c];
}

float*
Tensor::row(std::size_t r)
{
    RECSIM_ASSERT(rank_ == 2 && r < rows_, "row {} of {}", r,
                  shapeString());
    return data_.data() + r * cols_;
}

const float*
Tensor::row(std::size_t r) const
{
    RECSIM_ASSERT(rank_ == 2 && r < rows_, "row {} of {}", r,
                  shapeString());
    return data_.data() + r * cols_;
}

void
Tensor::fill(float value)
{
    std::fill_n(data(), size(), value);
}

void
Tensor::fillNormal(util::Rng& rng, float stddev)
{
    for (auto& v : std::span(data(), size()))
        v = static_cast<float>(rng.normal(0.0, stddev));
}

void
Tensor::fillUniform(util::Rng& rng, float lo, float hi)
{
    for (auto& v : std::span(data(), size()))
        v = static_cast<float>(rng.uniform(lo, hi));
}

void
Tensor::reshape(std::size_t rows, std::size_t cols)
{
    RECSIM_ASSERT(rows * cols == size(),
                  "reshape [{} x {}] of {} elements", rows, cols, size());
    rank_ = 2;
    rows_ = rows;
    cols_ = cols;
}

void
Tensor::resize(std::size_t rows, std::size_t cols)
{
    data_.assign(rows * cols, 0.0f);
    rank_ = 2;
    rows_ = rows;
    cols_ = cols;
}

void
Tensor::resizeUninitialized(std::size_t rows, std::size_t cols)
{
    if (data_.size() < rows * cols)
        data_.resize(rows * cols);
    rank_ = 2;
    rows_ = rows;
    cols_ = cols;
}

void
Tensor::resize(std::size_t n)
{
    data_.assign(n, 0.0f);
    rank_ = 1;
    rows_ = n;
    cols_ = 1;
}

std::string
Tensor::shapeString() const
{
    if (rank_ == 1)
        return util::format("[{}]", size());
    return util::format("[{} x {}]", rows_, cols_);
}

bool
Tensor::sameShape(const Tensor& other) const
{
    return rank_ == other.rank_ && rows_ == other.rows_ &&
        cols_ == other.cols_;
}

} // namespace tensor
} // namespace recsim
