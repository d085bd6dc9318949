// A minimal dense 2-D float32 tensor.
//
// This is the numeric substrate standing in for the GPU tensors that DGL /
// PyTorch provide in the original APT implementation. Row-major, owning,
// value-semantic. Kernels live in ops.h / segment_ops.h.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/default_init_allocator.h"
#include "core/error.h"

namespace apt {

class Tensor {
 public:
  Tensor() : rows_(0), cols_(0) {}

  /// Zero-initialized rows x cols tensor.
  Tensor(std::int64_t rows, std::int64_t cols) : Tensor(rows, cols, kUninit) { Zero(); }

  Tensor(std::int64_t rows, std::int64_t cols, const std::vector<float>& data)
      : rows_(rows), cols_(cols), data_(data.begin(), data.end()) {
    APT_CHECK_EQ(static_cast<std::int64_t>(data_.size()), rows * cols);
  }

  /// A rows x cols tensor whose elements are left unwritten, for a kernel
  /// that writes every element before anything reads one (a gather, a
  /// beta-0 GEMM, an element-wise map). Sanitizer builds fill it with quiet
  /// NaN, so a read of an element the kernel skipped shows up in results.
  static Tensor Uninit(std::int64_t rows, std::int64_t cols) {
    Tensor t(rows, cols, kUninit);
#if defined(APT_SANITIZED)
    t.Fill(std::numeric_limits<float>::quiet_NaN());
#endif
    return t;
  }

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  std::int64_t numel() const { return rows_ * cols_; }
  bool empty() const { return numel() == 0; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Pointer to the beginning of row r.
  float* row(std::int64_t r) {
    APT_CHECK(r >= 0 && r < rows_) << "row " << r << " of " << rows_;
    return data_.data() + r * cols_;
  }
  const float* row(std::int64_t r) const {
    APT_CHECK(r >= 0 && r < rows_) << "row " << r << " of " << rows_;
    return data_.data() + r * cols_;
  }
  std::span<float> row_span(std::int64_t r) { return {row(r), static_cast<std::size_t>(cols_)}; }
  std::span<const float> row_span(std::int64_t r) const {
    return {row(r), static_cast<std::size_t>(cols_)};
  }

  float& at(std::int64_t r, std::int64_t c) {
    APT_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_)
        << "(" << r << "," << c << ") of (" << rows_ << "," << cols_ << ")";
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }
  float at(std::int64_t r, std::int64_t c) const {
    APT_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_)
        << "(" << r << "," << c << ") of (" << rows_ << "," << cols_ << ")";
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }

  /// Unchecked element access for hot kernels.
  float& operator()(std::int64_t r, std::int64_t c) {
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }
  float operator()(std::int64_t r, std::int64_t c) const {
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }

  void Fill(float v) { std::fill(data_.begin(), data_.end(), v); }
  void Zero() { Fill(0.0f); }

  bool SameShape(const Tensor& o) const { return rows_ == o.rows_ && cols_ == o.cols_; }

  std::string ShapeString() const;

  /// Total payload size in bytes (what the simulator charges for transfers).
  std::int64_t bytes() const { return numel() * static_cast<std::int64_t>(sizeof(float)); }

 private:
  struct UninitTag {};
  static constexpr UninitTag kUninit{};

  Tensor(std::int64_t rows, std::int64_t cols, UninitTag) : rows_(rows), cols_(cols) {
    APT_CHECK_GE(rows, 0);
    APT_CHECK_GE(cols, 0);
    data_.resize(static_cast<std::size_t>(rows * cols));
  }

  std::int64_t rows_;
  std::int64_t cols_;
  std::vector<float, DefaultInitAllocator<float>> data_;
};

}  // namespace apt
