#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "runtime/parallel_for.h"

namespace apt {

namespace {

// Grain for row-parallel kernels: keep serial below ~16k elements.
std::int64_t RowGrain(std::int64_t cols) {
  return std::max<std::int64_t>(1, 16384 / std::max<std::int64_t>(1, cols));
}

// ---------------------------------------------------------------------------
// Blocked GEMM. A register-tiled microkernel updates a kMr x kNr tile of C
// over one k-panel: the accumulators live in registers for the whole panel,
// so the inner loop issues one B load and kMr fused multiply-adds per
// element with no C traffic. Accumulation order over p is identical to the
// naive row kernel, keeping results deterministic without -ffast-math.
// ---------------------------------------------------------------------------

constexpr std::int64_t kMr = 4;  // C tile rows held in registers
constexpr std::int64_t kNr = 8;  // C tile cols: one SSE pair / one AVX lane
// k-panel length: the kMr x kKc A panel (~4 KB) and kKc x kNr B tile (~8 KB)
// stay L1-resident while a C tile is updated.
constexpr std::int64_t kKc = 256;

// kNr-wide float vector. GCC/Clang lower the element-wise ops to the widest
// ISA the target allows (one AVX register, or a pair of SSE registers on the
// x86-64 baseline) — written explicitly because the autovectorizer turns the
// equivalent scalar tile into a slow shuffle-heavy SLP form.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"  // VecNr never crosses a real ABI
                                          // boundary: every user is inlined.
typedef float VecNr __attribute__((vector_size(kNr * sizeof(float))));

// Runtime ISA dispatch for the GEMM drivers: the binary stays baseline
// x86-64, but ifunc resolution picks an AVX2+FMA or AVX-512 clone when the
// host has one. `flatten` pulls the microkernel into each clone so the
// vector code is lowered with the clone's ISA. Disabled under sanitizers:
// ifunc resolvers run during relocation, before the sanitizer runtime is
// initialized, and crash at startup.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#define APT_GEMM_CLONES \
  __attribute__((target_clones("default", "avx2", "arch=x86-64-v4"), flatten))
#else
#define APT_GEMM_CLONES
#endif

inline VecNr LoadVec(const float* p) {
  VecNr v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

inline void StoreVec(float* p, VecNr v) { __builtin_memcpy(p, &v, sizeof(v)); }

// C[0:kMr, 0:kNr] += alpha * A-tile * B[0:kc, 0:kNr]. kTransA selects the A
// element layout: a(r, p) = a[r * lda + p] for row-major A (C = A B), or
// a[p * lda + r] when `a` points into a [k, m] matrix (C = A^T B). The
// accumulator tile lives in vector registers for the whole k-panel, so the
// inner loop issues one B load and kMr multiply-adds per vector with no C
// traffic. Per-element accumulation order over p matches the naive row
// kernel: element-wise vector ops never re-associate, so no -ffast-math.
template <bool kTransA>
inline void GemmMicroKernel(const float* a, std::int64_t lda, const float* b,
                            std::int64_t ldb, float* c, std::int64_t ldc,
                            std::int64_t kc, float alpha) {
  VecNr acc0 = {}, acc1 = {}, acc2 = {}, acc3 = {};
  static_assert(kMr == 4, "accumulator rows are hand-unrolled");
  for (std::int64_t p = 0; p < kc; ++p) {
    const VecNr bv = LoadVec(b + p * ldb);
    const float* ap = kTransA ? a + p * lda : a + p;
    const std::int64_t step = kTransA ? 1 : lda;
    acc0 += ap[0 * step] * bv;
    acc1 += ap[1 * step] * bv;
    acc2 += ap[2 * step] * bv;
    acc3 += ap[3 * step] * bv;
  }
  StoreVec(c + 0 * ldc, LoadVec(c + 0 * ldc) + alpha * acc0);
  StoreVec(c + 1 * ldc, LoadVec(c + 1 * ldc) + alpha * acc1);
  StoreVec(c + 2 * ldc, LoadVec(c + 2 * ldc) + alpha * acc2);
  StoreVec(c + 3 * ldc, LoadVec(c + 3 * ldc) + alpha * acc3);
}

// Scalar edge-tile update for the ragged rim (mr < kMr and/or nr < kNr).
template <bool kTransA>
inline void GemmEdgeTile(const float* a, std::int64_t lda, const float* b,
                         std::int64_t ldb, float* c, std::int64_t ldc,
                         std::int64_t kc, std::int64_t mr, std::int64_t nr,
                         float alpha) {
  float acc[kMr][kNr] = {};
  for (std::int64_t p = 0; p < kc; ++p) {
    const float* brow = b + p * ldb;
    for (std::int64_t r = 0; r < mr; ++r) {
      const float av = kTransA ? a[p * lda + r] : a[r * lda + p];
      for (std::int64_t j = 0; j < nr; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (std::int64_t r = 0; r < mr; ++r) {
    float* crow = c + r * ldc;
    for (std::int64_t j = 0; j < nr; ++j) crow[j] += alpha * acc[r][j];
  }
}

// Applies beta and runs the tiled update for C rows [lo, hi). `k` is the
// contraction length; lda is k for row-major A and m (C rows) for A^T.
template <bool kTransA>
inline void GemmRowBlockImpl(const float* a, std::int64_t lda, const float* b,
                             std::int64_t n, float* c, std::int64_t k,
                             std::int64_t lo, std::int64_t hi, float alpha,
                             float beta) {
  for (std::int64_t i = lo; i < hi; ++i) {
    float* crow = c + i * n;
    if (beta == 0.0f) {
      std::fill(crow, crow + n, 0.0f);
    } else if (beta != 1.0f) {
      for (std::int64_t j = 0; j < n; ++j) crow[j] *= beta;
    }
  }
  for (std::int64_t p0 = 0; p0 < k; p0 += kKc) {
    const std::int64_t kc = std::min(kKc, k - p0);
    for (std::int64_t i = lo; i < hi; i += kMr) {
      const std::int64_t mr = std::min(kMr, hi - i);
      const float* atile = kTransA ? a + p0 * lda + i : a + i * lda + p0;
      std::int64_t j = 0;
      if (mr == kMr) {
        for (; j + kNr <= n; j += kNr) {
          GemmMicroKernel<kTransA>(atile, lda, b + p0 * n + j, n,
                                   c + i * n + j, n, kc, alpha);
        }
      }
      for (; j < n; j += kNr) {
        GemmEdgeTile<kTransA>(atile, lda, b + p0 * n + j, n, c + i * n + j, n,
                              kc, mr, std::min(kNr, n - j), alpha);
      }
    }
  }
}

// Row block of C = A B where A's rows are `lda` floats apart (lda >= k), so
// A may be a column slice of a wider matrix.
APT_GEMM_CLONES
void GemmRowBlockNN(const float* a, std::int64_t lda, const float* b,
                    std::int64_t n, float* c, std::int64_t k, std::int64_t lo,
                    std::int64_t hi, float alpha, float beta) {
  GemmRowBlockImpl<false>(a, lda, b, n, c, k, lo, hi, alpha, beta);
}

APT_GEMM_CLONES
void GemmRowBlockTN(const float* a, std::int64_t m, const float* b,
                    std::int64_t n, float* c, std::int64_t k, std::int64_t lo,
                    std::int64_t hi, float alpha, float beta) {
  GemmRowBlockImpl<true>(a, m, b, n, c, k, lo, hi, alpha, beta);
}

// Row block of C = A B^T: rows of C are dot products along the contiguous k
// axis of both operands. kNr partial-sum lanes make the reduction
// vectorizable without -ffast-math reassociation; kJb B rows share each A
// load.
APT_GEMM_CLONES
void GemmRowBlockNT(const float* ap, const float* bp, float* cp,
                    std::int64_t k, std::int64_t n, std::int64_t lo,
                    std::int64_t hi, float alpha, float beta) {
  constexpr std::int64_t kLanes = kNr;
  constexpr std::int64_t kJb = 4;
  for (std::int64_t i = lo; i < hi; ++i) {
    const float* arow = ap + i * k;
    float* crow = cp + i * n;
    for (std::int64_t j0 = 0; j0 < n; j0 += kJb) {
      const std::int64_t jb = std::min(kJb, n - j0);
      VecNr lanes[kJb] = {};
      std::int64_t p = 0;
      for (; p + kLanes <= k; p += kLanes) {
        const VecNr av = LoadVec(arow + p);
        for (std::int64_t r = 0; r < jb; ++r) {
          lanes[r] += av * LoadVec(bp + (j0 + r) * k + p);
        }
      }
      for (std::int64_t r = 0; r < jb; ++r) {
        const float* brow = bp + (j0 + r) * k;
        float acc = 0.0f;
        for (std::int64_t l = 0; l < kLanes; ++l) acc += lanes[r][l];
        for (std::int64_t pt = p; pt < k; ++pt) acc += arow[pt] * brow[pt];
        const std::int64_t j = j0 + r;
        crow[j] = alpha * acc + (beta == 0.0f ? 0.0f : beta * crow[j]);
      }
    }
  }
}

#pragma GCC diagnostic pop

// C = A^T B where `ap` points at k rows of an [., m] matrix.
void MatmulTNRows(const float* ap, std::int64_t k, std::int64_t m, const Tensor& b,
                  Tensor& c, float alpha, float beta) {
  const std::int64_t n = b.cols();
  APT_CHECK_EQ(b.rows(), k);
  APT_CHECK_EQ(c.rows(), m);
  APT_CHECK_EQ(c.cols(), n);
  if (m == 0 || n == 0) return;
  const float* bp = b.data();
  float* cp = c.data();
  ParallelForChunks(0, m, [&](std::int64_t lo, std::int64_t hi) {
    GemmRowBlockTN(ap, m, bp, n, cp, k, lo, hi, alpha, beta);
  }, RowGrain(k + n));
}

}  // namespace

void Matmul(const Tensor& a, const Tensor& b, Tensor& c, float alpha, float beta) {
  const std::int64_t m = a.rows(), k = a.cols(), n = b.cols();
  APT_CHECK_EQ(b.rows(), k);
  APT_CHECK_EQ(c.rows(), m);
  APT_CHECK_EQ(c.cols(), n);
  if (m == 0 || n == 0) return;
  const float* ap = a.data();
  const float* bp = b.data();
  float* cp = c.data();
  ParallelForChunks(0, m, [&](std::int64_t lo, std::int64_t hi) {
    GemmRowBlockNN(ap, k, bp, n, cp, k, lo, hi, alpha, beta);
  }, RowGrain(k + n));
}

void MatmulTN(const Tensor& a, const Tensor& b, Tensor& c, float alpha, float beta) {
  // A is [k, m]; C = A^T B is [m, n].
  MatmulTNRows(a.data(), a.rows(), a.cols(), b, c, alpha, beta);
}

void MatmulTN(const Tensor& a, std::int64_t a_row0, const Tensor& b, Tensor& c) {
  APT_CHECK(a_row0 >= 0 && a_row0 + b.rows() <= a.rows())
      << "rows [" << a_row0 << ", " << a_row0 + b.rows() << ") of " << a.rows();
  MatmulTNRows(a.data() + a_row0 * a.cols(), b.rows(), a.cols(), b, c, 1.0f, 0.0f);
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
  const float* ap = a.data();
  const float* bp = b.data();
  float* cp = c.data();
  const std::int64_t rows = segments.back() - segments.front();
  ParallelForChunks(0, m, [&](std::int64_t lo, std::int64_t hi) {
    for (std::size_t s = 0; s + 1 < segments.size(); ++s) {
      const std::int64_t r0 = segments[s];
      GemmRowBlockTN(ap + r0 * m, m, bp + r0 * n, n, cp, segments[s + 1] - r0, lo, hi,
                     alpha, s == 0 ? beta : 1.0f);
    }
  }, RowGrain(rows + n));
}

void SliceSumMatmul(std::span<const SliceTerm> terms,
                    std::span<const std::int64_t> bounds, Tensor& c) {
  const std::int64_t m = c.rows(), n = c.cols();
  APT_CHECK(!terms.empty());
  APT_CHECK_GE(bounds.size(), 2u);
  const std::size_t slices = bounds.size() - 1;
  for (const SliceTerm& t : terms) {
    APT_CHECK(t.a_row0 >= 0 && t.a_row0 + m <= t.a->rows())
        << "rows [" << t.a_row0 << ", " << t.a_row0 + m << ") of " << t.a->rows();
    APT_CHECK(bounds.front() >= 0 && bounds.back() <= t.a->cols());
    APT_CHECK_EQ(t.b.size(), slices);
    for (const Tensor* b : t.b) {
      APT_CHECK_EQ(b->rows(), t.a->cols());
      APT_CHECK_EQ(b->cols(), n);
    }
  }
  for (std::size_t s = 0; s < slices; ++s) APT_CHECK_LE(bounds[s], bounds[s + 1]);
  if (m == 0 || n == 0) return;
  // Rows per block: a 16 KB partial, so it stays in L1 while it is formed
  // and added into C.
  const std::int64_t block = std::max(kMr, 4096 / n / kMr * kMr);
  float* cp = c.data();
  ParallelForChunks(0, m, [&](std::int64_t lo, std::int64_t hi) {
    std::vector<float> scratch(static_cast<std::size_t>(std::min(block, hi - lo) * n));
    for (std::int64_t r0 = lo; r0 < hi; r0 += block) {
      const std::int64_t rows = std::min(block, hi - r0);
      float* crows = cp + r0 * n;
      for (std::size_t s = 0; s < slices; ++s) {
        // Slice 0 is formed in C itself, as if C = P_0; later slices go
        // through the scratch and are added in, as Axpy(1, P_s, C) adds.
        float* out = s == 0 ? crows : scratch.data();
        const std::int64_t k0 = bounds[s];
        for (std::size_t t = 0; t < terms.size(); ++t) {
          const Tensor& a = *terms[t].a;
          GemmRowBlockNN(a.data() + (terms[t].a_row0 + r0) * a.cols() + k0, a.cols(),
                         terms[t].b[s]->data() + k0 * n, n, out, bounds[s + 1] - k0, 0,
                         rows, 1.0f, t == 0 ? 0.0f : 1.0f);
        }
        if (s == 0) continue;
        const float* part = scratch.data();
        for (std::int64_t i = 0; i < rows * n; ++i) crows[i] += part[i];
      }
    }
  }, RowGrain(bounds.back() - bounds.front() + n));
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
  ParallelFor(0, x.numel(), [&](std::int64_t i) { gx[i] = xp[i] > 0.0f ? gy[i] : 0.0f; },
              1 << 15);
}

void LeakyRelu(const Tensor& x, Tensor& out, float slope) {
  APT_CHECK(x.SameShape(out));
  const float* xp = x.data();
  float* op = out.data();
  ParallelFor(0, x.numel(),
              [&](std::int64_t i) { op[i] = xp[i] > 0.0f ? xp[i] : slope * xp[i]; }, 1 << 15);
}

void LeakyReluBackward(const Tensor& x, const Tensor& grad_y, Tensor& grad_x,
                       float slope) {
  APT_CHECK(x.SameShape(grad_y));
  APT_CHECK(x.SameShape(grad_x));
  const float* xp = x.data();
  const float* gy = grad_y.data();
  float* gx = grad_x.data();
  ParallelFor(0, x.numel(),
              [&](std::int64_t i) { gx[i] = xp[i] > 0.0f ? gy[i] : slope * gy[i]; }, 1 << 15);
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

double SumSquares(const Tensor& x) {
  double s = 0.0;
  const float* xp = x.data();
  for (std::int64_t i = 0; i < x.numel(); ++i) s += static_cast<double>(xp[i]) * xp[i];
  return s;
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

void ScatterRows(const Tensor& src, std::span<const std::int64_t> index, Tensor& dst) {
  APT_CHECK_EQ(src.rows(), static_cast<std::int64_t>(index.size()));
  APT_CHECK_EQ(src.cols(), dst.cols());
  const std::int64_t n = src.cols();
  ParallelFor(0, src.rows(), [&](std::int64_t i) {
    const std::int64_t r = index[static_cast<std::size_t>(i)];
    APT_CHECK(r >= 0 && r < dst.rows()) << "scatter index " << r << " of " << dst.rows();
    std::copy_n(src.data() + i * n, n, dst.data() + r * n);
  }, RowGrain(n));
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
