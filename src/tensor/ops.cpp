#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "core/isa.h"
#include "runtime/parallel_for.h"
#include "tensor/gemm_kernel.h"

namespace apt {

namespace {

// Grain for row-parallel kernels: keep serial below ~16k elements.
std::int64_t RowGrain(std::int64_t cols) {
  return std::max<std::int64_t>(1, 16384 / std::max<std::int64_t>(1, cols));
}

// ---------------------------------------------------------------------------
// Blocked GEMM (kernels in gemm_kernel.h). Runtime ISA dispatch: the binary
// stays baseline x86-64, but ifunc resolution picks an AVX2 or AVX-512
// version of each driver when the host has one, and each version
// instantiates the kernels at the tile its register file holds:
//   default (16 xmm):        4 x 8 NN/TN tiles, 2 A rows per NT pass;
//   avx2 (16 ymm):           8 x 8 (8 x 16 spills, 3x slower), 4;
//   arch=x86-64-v4 (32 zmm): 8 x 16, 4.
// Only x86-64-v4 has FMA, so only that version fuses multiply-adds; the
// tile never changes a bit within a version (see gemm_kernel.h). `flatten`
// pulls the kernels into each version so the vector code is lowered with
// that version's ISA. Only the default version is compiled under
// sanitizers and clang (APT_ISA_DISPATCH, core/isa.h).
// ---------------------------------------------------------------------------

#define APT_GEMM_DRIVERS(ATTRS, MR, NR, NT_ROWS)                                       \
  /* Row block of C = A B; A's rows are `lda` floats apart (lda >= k). */              \
  ATTRS void GemmRowBlockNN(const float* a, std::int64_t lda, const float* b,          \
                            std::int64_t n, float* c, std::int64_t k, std::int64_t lo, \
                            std::int64_t hi, float alpha, float beta) {                \
    gemm::RowBlock<false, MR, NR>(a, lda, b, n, c, k, lo, hi, alpha, beta);            \
  }                                                                                    \
  /* Row block of C = A^T B for A [k, m]. */                                           \
  ATTRS void GemmRowBlockTN(const float* a, std::int64_t m, const float* b,            \
                            std::int64_t n, float* c, std::int64_t k, std::int64_t lo, \
                            std::int64_t hi, float alpha, float beta) {                \
    gemm::RowBlock<true, MR, NR>(a, m, b, n, c, k, lo, hi, alpha, beta);               \
  }                                                                                    \
  /* Row block of C = A B^T for A [m, k] and B [n, k]. */                              \
  ATTRS void GemmRowBlockNT(const float* a, const float* b, float* c, std::int64_t k,  \
                            std::int64_t n, std::int64_t lo, std::int64_t hi,          \
                            float alpha, float beta) {                                 \
    gemm::RowBlockNT<NT_ROWS>(a, b, c, k, n, lo, hi, alpha, beta);                     \
  }                                                                                    \
  /* Row block of C = beta C + alpha sum_q A_q^T B_q over k-pieces. */                 \
  ATTRS void GemmSegmentedRowBlockTN(const float* a, std::int64_t m, const float* b,   \
                                     std::int64_t n, float* c,                         \
                                     const std::int64_t* cuts, std::int64_t pieces,    \
                                     std::int64_t lo, std::int64_t hi, float alpha,    \
                                     float beta) {                                     \
    gemm::SegmentedRowBlockTN<MR, NR>(a, m, b, n, c, cuts, pieces, lo, hi, alpha,      \
                                      beta);                                           \
  }

#if APT_ISA_DISPATCH
APT_GEMM_DRIVERS(__attribute__((target("default"), flatten)), 4, 8, 2)
APT_GEMM_DRIVERS(__attribute__((target("avx2"), flatten)), 8, 8, 4)
APT_GEMM_DRIVERS(__attribute__((target("arch=x86-64-v4"), flatten)), 8, 16, 4)
#else
APT_GEMM_DRIVERS(, 4, 8, 2)
#endif

#undef APT_GEMM_DRIVERS

// C = A B where `ap` points at C's rows of an [., k] matrix.
void MatmulRows(const float* ap, std::int64_t k, const Tensor& b, Tensor& c, float alpha,
                float beta) {
  const std::int64_t m = c.rows(), n = b.cols();
  APT_CHECK_EQ(b.rows(), k);
  APT_CHECK_EQ(c.cols(), n);
  if (m == 0 || n == 0) return;
  const float* bp = b.data();
  float* cp = c.data();
  ParallelForChunks(0, m, [&](std::int64_t lo, std::int64_t hi) {
    GemmRowBlockNN(ap, k, bp, n, cp, k, lo, hi, alpha, beta);
  }, RowGrain(k + n));
}

}  // namespace

void Matmul(const Tensor& a, const Tensor& b, Tensor& c, float alpha, float beta) {
  APT_CHECK_EQ(c.rows(), a.rows());
  MatmulRows(a.data(), a.cols(), b, c, alpha, beta);
}

void Matmul(const Tensor& a, std::int64_t a_row0, const Tensor& b, Tensor& c) {
  APT_CHECK(a_row0 >= 0 && a_row0 + c.rows() <= a.rows())
      << "rows [" << a_row0 << ", " << a_row0 + c.rows() << ") of " << a.rows();
  MatmulRows(a.data() + a_row0 * a.cols(), a.cols(), b, c, 1.0f, 0.0f);
}

void MatmulTN(const Tensor& a, const Tensor& b, Tensor& c, float alpha, float beta) {
  // A is [k, m]; C = A^T B is [m, n].
  const std::int64_t k = a.rows(), m = a.cols(), n = b.cols();
  APT_CHECK_EQ(b.rows(), k);
  APT_CHECK_EQ(c.rows(), m);
  APT_CHECK_EQ(c.cols(), n);
  if (m == 0 || n == 0) return;
  const float* ap = a.data();
  const float* bp = b.data();
  float* cp = c.data();
  ParallelForChunks(0, m, [&](std::int64_t lo, std::int64_t hi) {
    GemmRowBlockTN(ap, m, bp, n, cp, k, lo, hi, alpha, beta);
  }, RowGrain(k + n));
}

void SegmentedMatmulTN(const Tensor& a, const Tensor& b,
                       std::span<const std::int64_t> segments, Tensor& c,
                       float alpha, float beta) {
  const std::int64_t k = a.rows(), m = a.cols(), n = b.cols();
  APT_CHECK_EQ(b.rows(), k);
  APT_CHECK_EQ(c.rows(), m);
  APT_CHECK_EQ(c.cols(), n);
  if (segments.size() < 2 || m == 0 || n == 0) return;
  for (std::size_t s = 0; s + 1 < segments.size(); ++s) {
    APT_CHECK(segments[s] >= 0 && segments[s] <= segments[s + 1] && segments[s + 1] <= k)
        << "segment [" << segments[s] << ", " << segments[s + 1] << ") of " << k << " rows";
  }
  std::vector<std::int64_t> cuts;
  const std::int64_t pieces = gemm::SegmentPieces(segments, cuts);
  const float* ap = a.data();
  const float* bp = b.data();
  float* cp = c.data();
  const std::int64_t rows = segments.back() - segments.front();
  ParallelForChunks(0, m, [&](std::int64_t lo, std::int64_t hi) {
    GemmSegmentedRowBlockTN(ap, m, bp, n, cp, cuts.data(), pieces, lo, hi, alpha, beta);
  }, RowGrain(rows + n));
}

void MatmulNT(const Tensor& a, const Tensor& b, Tensor& c, float alpha, float beta) {
  // B is [n, k]; C = A B^T is [m, n].
  const std::int64_t m = a.rows(), k = a.cols(), n = b.rows();
  APT_CHECK_EQ(b.cols(), k);
  APT_CHECK_EQ(c.rows(), m);
  APT_CHECK_EQ(c.cols(), n);
  const float* ap = a.data();
  const float* bp = b.data();
  float* cp = c.data();
  ParallelForChunks(0, m, [&](std::int64_t lo, std::int64_t hi) {
    GemmRowBlockNT(ap, bp, cp, k, n, lo, hi, alpha, beta);
  }, RowGrain(k + n));
}

void Axpy(float alpha, const Tensor& x, Tensor& y) {
  APT_CHECK(x.SameShape(y)) << x.ShapeString() << " vs " << y.ShapeString();
  const float* xp = x.data();
  float* yp = y.data();
  const std::int64_t n = x.numel();
  ParallelFor(0, n, [&](std::int64_t i) { yp[i] += alpha * xp[i]; }, 1 << 15);
}

void Scale(Tensor& x, float alpha) {
  float* xp = x.data();
  const std::int64_t n = x.numel();
  ParallelFor(0, n, [&](std::int64_t i) { xp[i] *= alpha; }, 1 << 15);
}

void Add(const Tensor& a, const Tensor& b, Tensor& out) {
  APT_CHECK(a.SameShape(b));
  APT_CHECK(a.SameShape(out));
  const float* ap = a.data();
  const float* bp = b.data();
  float* op = out.data();
  ParallelFor(0, a.numel(), [&](std::int64_t i) { op[i] = ap[i] + bp[i]; }, 1 << 15);
}

void AddBiasRows(Tensor& x, const Tensor& bias) {
  APT_CHECK_EQ(bias.rows(), 1);
  APT_CHECK_EQ(bias.cols(), x.cols());
  const std::int64_t n = x.cols();
  const float* bp = bias.data();
  ParallelFor(0, x.rows(), [&](std::int64_t i) {
    float* xrow = x.data() + i * n;
    for (std::int64_t j = 0; j < n; ++j) xrow[j] += bp[j];
  }, RowGrain(n));
}

void BiasGradRows(const Tensor& grad, Tensor& grad_bias) {
  APT_CHECK_EQ(grad_bias.rows(), 1);
  APT_CHECK_EQ(grad_bias.cols(), grad.cols());
  grad_bias.Zero();
  float* gb = grad_bias.data();
  const std::int64_t n = grad.cols();
  for (std::int64_t i = 0; i < grad.rows(); ++i) {
    const float* grow = grad.data() + i * n;
    for (std::int64_t j = 0; j < n; ++j) gb[j] += grow[j];
  }
}

void Relu(const Tensor& x, Tensor& out) {
  APT_CHECK(x.SameShape(out));
  const float* xp = x.data();
  float* op = out.data();
  ParallelFor(0, x.numel(), [&](std::int64_t i) { op[i] = xp[i] > 0.0f ? xp[i] : 0.0f; },
              1 << 15);
}

void ReluBackward(const Tensor& x, const Tensor& grad_y, Tensor& grad_x) {
  APT_CHECK(x.SameShape(grad_y));
  APT_CHECK(x.SameShape(grad_x));
  const float* xp = x.data();
  const float* gy = grad_y.data();
  float* gx = grad_x.data();
  // gy[i] is loaded before the select, so the loop if-converts into
  // vector blends; a load under the condition compiles to a scalar branch
  // that mispredicts on about half the elements. Multiplying by a 0/1 mask
  // would be branchless too, but turns negative gradients into -0.0f.
  ParallelFor(0, x.numel(), [&](std::int64_t i) {
    const float g = gy[i];
    gx[i] = xp[i] > 0.0f ? g : 0.0f;
  }, 1 << 15);
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  APT_CHECK(a.SameShape(b)) << a.ShapeString() << " vs " << b.ShapeString();
  float m = 0.0f;
  const float* ap = a.data();
  const float* bp = b.data();
  for (std::int64_t i = 0; i < a.numel(); ++i) {
    m = std::max(m, std::fabs(ap[i] - bp[i]));
  }
  return m;
}

void GatherRows(const Tensor& src, std::span<const std::int64_t> index, Tensor& out) {
  APT_CHECK_EQ(out.rows(), static_cast<std::int64_t>(index.size()));
  APT_CHECK_EQ(out.cols(), src.cols());
  const std::int64_t n = src.cols();
  ParallelFor(0, out.rows(), [&](std::int64_t i) {
    const std::int64_t r = index[static_cast<std::size_t>(i)];
    APT_CHECK(r >= 0 && r < src.rows()) << "gather index " << r << " of " << src.rows();
    std::copy_n(src.data() + r * n, n, out.data() + i * n);
  }, RowGrain(n));
}

void ScatterAddRows(const Tensor& src, std::span<const std::int64_t> index, Tensor& dst) {
  APT_CHECK_EQ(src.rows(), static_cast<std::int64_t>(index.size()));
  APT_CHECK_EQ(src.cols(), dst.cols());
  const std::int64_t n = src.cols();
  // Serial: indices may repeat, so a parallel version would race.
  for (std::int64_t i = 0; i < src.rows(); ++i) {
    const std::int64_t r = index[static_cast<std::size_t>(i)];
    APT_CHECK(r >= 0 && r < dst.rows()) << "scatter index " << r << " of " << dst.rows();
    const float* srow = src.data() + i * n;
    float* drow = dst.data() + r * n;
    for (std::int64_t j = 0; j < n; ++j) drow[j] += srow[j];
  }
}

float SoftmaxCrossEntropy(const Tensor& logits, std::span<const std::int64_t> labels,
                          Tensor* grad, std::int64_t* count_correct) {
  const std::int64_t m = logits.rows(), n = logits.cols();
  APT_CHECK_EQ(static_cast<std::int64_t>(labels.size()), m);
  if (grad != nullptr) {
    APT_CHECK(grad->SameShape(logits));
  }
  double total_loss = 0.0;
  std::int64_t correct = 0;
  for (std::int64_t i = 0; i < m; ++i) {
    const float* row = logits.data() + i * n;
    const std::int64_t label = labels[static_cast<std::size_t>(i)];
    APT_CHECK(label >= 0 && label < n) << "label " << label << " for " << n << " classes";
    float maxv = row[0];
    std::int64_t argmax = 0;
    for (std::int64_t j = 1; j < n; ++j) {
      if (row[j] > maxv) {
        maxv = row[j];
        argmax = j;
      }
    }
    if (argmax == label) ++correct;
    double denom = 0.0;
    for (std::int64_t j = 0; j < n; ++j) denom += std::exp(static_cast<double>(row[j] - maxv));
    const double log_denom = std::log(denom);
    total_loss += log_denom - static_cast<double>(row[label] - maxv);
    if (grad != nullptr) {
      float* grow = grad->data() + i * n;
      const float inv_m = 1.0f / static_cast<float>(m);
      for (std::int64_t j = 0; j < n; ++j) {
        const double p = std::exp(static_cast<double>(row[j] - maxv)) / denom;
        grow[j] = inv_m * static_cast<float>(p - (j == label ? 1.0 : 0.0));
      }
    }
  }
  if (count_correct != nullptr) *count_correct = correct;
  return m > 0 ? static_cast<float>(total_loss / m) : 0.0f;
}

}  // namespace apt
