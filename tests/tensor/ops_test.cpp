// Dense kernel tests: shape checks, exact small cases, and numerical
// gradient checks for the loss.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/random.h"
#include "runtime/parallel_for.h"
#include "tensor/gemm_kernel.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace apt {
namespace {

Tensor RandTensor(std::int64_t r, std::int64_t c, std::uint64_t seed) {
  Tensor t(r, c);
  Rng rng(seed);
  UniformInit(t, rng, -1.0f, 1.0f);
  return t;
}

TEST(TensorTest, ShapeAndAccessors) {
  Tensor t(3, 4);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 4);
  EXPECT_EQ(t.numel(), 12);
  EXPECT_EQ(t.bytes(), 48);
  t.at(2, 3) = 5.0f;
  EXPECT_EQ(t(2, 3), 5.0f);
  EXPECT_EQ(t.ShapeString(), "[3, 4]");
  EXPECT_THROW(t.at(3, 0), Error);
  EXPECT_THROW(t.at(0, 4), Error);
}

TEST(TensorTest, RowSpanAndFill) {
  Tensor t(2, 3);
  t.Fill(2.5f);
  for (float v : t.row_span(1)) EXPECT_EQ(v, 2.5f);
  t.Zero();
  EXPECT_EQ(t(0, 0), 0.0f);
}

TEST(TensorTest, ConstructFromData) {
  Tensor t(2, 2, {1, 2, 3, 4});
  EXPECT_EQ(t(1, 0), 3.0f);
  EXPECT_THROW(Tensor(2, 2, {1, 2, 3}), Error);
}

TEST(TensorTest, UninitHasShapeAndIsAValue) {
  Tensor t = Tensor::Uninit(3, 5);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 5);
  EXPECT_EQ(t.numel(), 15);
  EXPECT_EQ(t.bytes(), 60);
  EXPECT_TRUE(Tensor::Uninit(0, 4).empty());
  EXPECT_THROW(Tensor::Uninit(-1, 4), Error);
  EXPECT_THROW(Tensor::Uninit(4, -1), Error);

  t.Fill(1.5f);
  t.at(2, 4) = 7.0f;
  Tensor copy = t;
  copy.at(0, 0) = -1.0f;
  EXPECT_EQ(t(0, 0), 1.5f);
  EXPECT_EQ(copy(2, 4), 7.0f);
  Tensor moved = std::move(copy);
  EXPECT_EQ(moved.rows(), 3);
  EXPECT_EQ(moved(0, 0), -1.0f);
  EXPECT_EQ(moved(2, 4), 7.0f);
  Tensor assigned = Tensor::Uninit(1, 1);
  assigned = t;
  ASSERT_TRUE(assigned.SameShape(t));
  EXPECT_TRUE(std::equal(t.data(), t.data() + t.numel(), assigned.data()));
}

TEST(TensorTest, ZeroConstructorClearsReusedDirtyStorage) {
  // Freeing a filled tensor and allocating the same shape hands the dirty
  // block straight back from the allocator's free lists.
  for (const std::int64_t rows : {4, 256, 4096}) {
    for (int round = 0; round < 3; ++round) {
      { Tensor dirty = Tensor::Uninit(rows, 64); dirty.Fill(1.0f); }
      const Tensor t(rows, 64);
      for (std::int64_t i = 0; i < t.numel(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(t.data()[i]), 0u) << "element " << i;
      }
    }
  }
}

TEST(MatmulTest, KnownProduct) {
  Tensor a(2, 3, {1, 2, 3, 4, 5, 6});
  Tensor b(3, 2, {7, 8, 9, 10, 11, 12});
  Tensor c(2, 2);
  Matmul(a, b, c);
  EXPECT_FLOAT_EQ(c(0, 0), 58);
  EXPECT_FLOAT_EQ(c(0, 1), 64);
  EXPECT_FLOAT_EQ(c(1, 0), 139);
  EXPECT_FLOAT_EQ(c(1, 1), 154);
}

TEST(MatmulTest, AlphaBetaAccumulate) {
  Tensor a(1, 1, {2});
  Tensor b(1, 1, {3});
  Tensor c(1, 1, {10});
  Matmul(a, b, c, /*alpha=*/2.0f, /*beta=*/1.0f);
  EXPECT_FLOAT_EQ(c(0, 0), 22);  // 10 + 2*2*3
  Matmul(a, b, c, 1.0f, 0.5f);
  EXPECT_FLOAT_EQ(c(0, 0), 17);  // 22*0.5 + 6
}

TEST(MatmulTest, TransposedVariantsAgree) {
  const Tensor a = RandTensor(5, 7, 1);
  const Tensor b = RandTensor(7, 4, 2);
  Tensor ref(5, 4);
  Matmul(a, b, ref);
  // MatmulTN: pass a^T explicitly.
  Tensor at(7, 5);
  for (std::int64_t i = 0; i < 5; ++i) {
    for (std::int64_t j = 0; j < 7; ++j) at(j, i) = a(i, j);
  }
  Tensor c1(5, 4);
  MatmulTN(at, b, c1);
  EXPECT_LT(MaxAbsDiff(ref, c1), 1e-5f);
  // MatmulNT: pass b^T explicitly.
  Tensor bt(4, 7);
  for (std::int64_t i = 0; i < 7; ++i) {
    for (std::int64_t j = 0; j < 4; ++j) bt(j, i) = b(i, j);
  }
  Tensor c2(5, 4);
  MatmulNT(a, bt, c2);
  EXPECT_LT(MaxAbsDiff(ref, c2), 1e-5f);
}

TEST(MatmulTest, ShapeMismatchThrows) {
  Tensor a(2, 3), b(4, 2), c(2, 2);
  EXPECT_THROW(Matmul(a, b, c), Error);
}

// Naive triple-loop references for the blocked kernels. Kept deliberately
// dumb: the production kernels tile and re-associate, so we compare with a
// tolerance scaled by the reduction depth.
void RefMatmul(const Tensor& a, const Tensor& b, Tensor& c, float alpha,
               float beta) {
  for (std::int64_t i = 0; i < c.rows(); ++i) {
    for (std::int64_t j = 0; j < c.cols(); ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < a.cols(); ++p) acc += double(a(i, p)) * b(p, j);
      c(i, j) = alpha * static_cast<float>(acc) + (beta == 0.0f ? 0.0f : beta * c(i, j));
    }
  }
}

void RefMatmulTN(const Tensor& a, const Tensor& b, Tensor& c, float alpha,
                 float beta) {
  for (std::int64_t i = 0; i < c.rows(); ++i) {
    for (std::int64_t j = 0; j < c.cols(); ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < a.rows(); ++p) acc += double(a(p, i)) * b(p, j);
      c(i, j) = alpha * static_cast<float>(acc) + (beta == 0.0f ? 0.0f : beta * c(i, j));
    }
  }
}

void RefMatmulNT(const Tensor& a, const Tensor& b, Tensor& c, float alpha,
                 float beta) {
  for (std::int64_t i = 0; i < c.rows(); ++i) {
    for (std::int64_t j = 0; j < c.cols(); ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < a.cols(); ++p) acc += double(a(i, p)) * b(j, p);
      c(i, j) = alpha * static_cast<float>(acc) + (beta == 0.0f ? 0.0f : beta * c(i, j));
    }
  }
}

TEST(MatmulTest, RandomizedParityOddShapes) {
  // Shapes chosen to hit edge paths of the register-blocked kernels:
  // partial m-tiles (m % 8), partial n-tiles (n % 16, n % 8), partial
  // k-panels (k % 256), and degenerate 1-row/1-col cases.
  const std::int64_t shapes[][3] = {
      {1, 1, 1},  {2, 3, 5},   {3, 9, 7},   {5, 17, 33}, {7, 63, 9},
      {9, 65, 17}, {33, 7, 65}, {63, 33, 63}, {65, 8, 4},  {4, 257, 8},
  };
  const float ab[][2] = {{1.0f, 0.0f}, {2.0f, 0.0f}, {1.0f, 1.0f}, {0.5f, -1.5f}};
  std::uint64_t seed = 100;
  for (const auto& s : shapes) {
    const std::int64_t m = s[0], k = s[1], n = s[2];
    for (const auto& co : ab) {
      const float alpha = co[0], beta = co[1];
      const float tol = 1e-4f * static_cast<float>(k);
      {
        const Tensor a = RandTensor(m, k, seed++);
        const Tensor b = RandTensor(k, n, seed++);
        Tensor c = RandTensor(m, n, seed++);
        Tensor ref = c;
        RefMatmul(a, b, ref, alpha, beta);
        Matmul(a, b, c, alpha, beta);
        EXPECT_LT(MaxAbsDiff(ref, c), tol)
            << "Matmul m=" << m << " k=" << k << " n=" << n << " alpha=" << alpha
            << " beta=" << beta;
      }
      {
        const Tensor a = RandTensor(k, m, seed++);  // stored transposed
        const Tensor b = RandTensor(k, n, seed++);
        Tensor c = RandTensor(m, n, seed++);
        Tensor ref = c;
        RefMatmulTN(a, b, ref, alpha, beta);
        MatmulTN(a, b, c, alpha, beta);
        EXPECT_LT(MaxAbsDiff(ref, c), tol)
            << "MatmulTN m=" << m << " k=" << k << " n=" << n;
      }
      {
        const Tensor a = RandTensor(m, k, seed++);
        const Tensor b = RandTensor(n, k, seed++);  // stored transposed
        Tensor c = RandTensor(m, n, seed++);
        Tensor ref = c;
        RefMatmulNT(a, b, ref, alpha, beta);
        MatmulNT(a, b, c, alpha, beta);
        EXPECT_LT(MaxAbsDiff(ref, c), tol)
            << "MatmulNT m=" << m << " k=" << k << " n=" << n;
      }
    }
  }
}

TEST(MatmulTest, EmptyOutputsAreNoOps) {
  Tensor a(0, 3), b(3, 2), c(0, 2);
  Matmul(a, b, c);  // must not touch memory or divide by zero
  Tensor a2(2, 0), b2(0, 3), c2(2, 3);
  c2.Fill(7.0f);
  Matmul(a2, b2, c2, 1.0f, 0.0f);  // k == 0: beta pass still applies
  EXPECT_FLOAT_EQ(c2(1, 2), 0.0f);
}

// SegmentedMatmulTN must equal running MatmulTN segment by segment: the
// first segment applies beta, every later one accumulates with beta = 1.
// Segment lengths straddle the register tile (4 or 8 rows) and the k-panel
// (kKc = 256), empty segments included; C's row count leaves a ragged tile.
Tensor SegmentRows(const Tensor& t, std::int64_t lo, std::int64_t hi) {
  Tensor out(hi - lo, t.cols());
  std::copy_n(t.row(lo), out.numel(), out.data());
  return out;
}

void ExpectSegmentedMatchesPerSegment(std::span<const std::int64_t> segments,
                                      std::int64_t m, std::int64_t n, float alpha,
                                      float beta, std::uint64_t seed) {
  const std::int64_t k = segments.empty() ? 0 : segments.back();
  const Tensor a = RandTensor(k, m, seed);
  const Tensor b = RandTensor(k, n, seed + 1);
  const Tensor c0 = RandTensor(m, n, seed + 2);
  Tensor want = c0;
  for (std::size_t s = 0; s + 1 < segments.size(); ++s) {
    MatmulTN(SegmentRows(a, segments[s], segments[s + 1]),
             SegmentRows(b, segments[s], segments[s + 1]), want, alpha,
             s == 0 ? beta : 1.0f);
  }
  Tensor got = c0;
  SegmentedMatmulTN(a, b, segments, got, alpha, beta);
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(want.data()[i]),
              std::bit_cast<std::uint32_t>(got.data()[i]))
        << "element " << i << " of " << m << "x" << n;
  }
}

TEST(SegmentedMatmulTest, MatchesPerSegmentMatmulTN) {
  const std::vector<std::vector<std::int64_t>> layouts = {
      {0, 5},                          // one segment
      {0, 0, 3, 3, 10},                // empty segments first and in between
      {0, 1, 2, 7, 300, 301},          // shorter than a tile, longer than kKc
      {0, 600, 600, 1200},             // several k-panels per segment
      {0, 3, 4, 5, 6, 7, 8, 9, 40},    // many short segments
  };
  std::uint64_t seed = 100;
  for (std::int64_t limit : {std::int64_t{1}, std::int64_t{0}}) {
    std::unique_ptr<ScopedParallelismLimit> lanes;
    if (limit > 0) lanes = std::make_unique<ScopedParallelismLimit>(limit);
    for (const auto& layout : layouts) {
      for (const auto& [m, n] : {std::pair<std::int64_t, std::int64_t>{13, 7},
                                 {64, 24}, {3, 33}, {257, 16}}) {
        for (const auto& [alpha, beta] :
             {std::pair<float, float>{1.0f, 1.0f}, {1.0f, 0.0f}, {-0.5f, 2.0f}, {0.25f, 1.0f}}) {
          SCOPED_TRACE(::testing::Message() << "segments " << layout.size() - 1 << " m " << m
                                            << " n " << n << " alpha " << alpha << " beta "
                                            << beta << " lanes " << limit);
          ExpectSegmentedMatchesPerSegment(layout, m, n, alpha, beta, seed++);
        }
      }
    }
  }
}

// An SNP owner's weight gradient at a thousand devices: about 300 segments,
// one per origin, mostly a single row, with empty segments (origins that
// routed no row to this owner) between them.
TEST(SegmentedMatmulTest, SnpAtScaleLayout) {
  Rng rng(77);
  std::vector<std::int64_t> layout{0};
  while (layout.size() < 301) {
    const std::uint64_t r = rng.NextBelow(10);
    layout.push_back(layout.back() +
                     (r < 3 ? 0 : r < 9 ? 1 : 2 + static_cast<std::int64_t>(rng.NextBelow(5))));
  }
  std::uint64_t seed = 500;
  for (std::int64_t limit : {std::int64_t{1}, std::int64_t{0}}) {
    std::unique_ptr<ScopedParallelismLimit> lanes;
    if (limit > 0) lanes = std::make_unique<ScopedParallelismLimit>(limit);
    for (const auto& [alpha, beta] :
         {std::pair<float, float>{1.0f, 1.0f}, {1.0f, 0.0f}, {-0.5f, 2.0f}}) {
      SCOPED_TRACE(::testing::Message() << "alpha " << alpha << " beta " << beta << " lanes "
                                        << limit);
      ExpectSegmentedMatchesPerSegment(layout, 64, 32, alpha, beta, seed++);
    }
  }
}

TEST(SegmentedMatmulTest, NoSegmentsLeaveOutputUntouched) {
  const Tensor a = RandTensor(6, 4, 1), b = RandTensor(6, 5, 2);
  const Tensor c0 = RandTensor(4, 5, 3);
  for (const std::vector<std::int64_t>& segments :
       {std::vector<std::int64_t>{}, std::vector<std::int64_t>{3}}) {
    Tensor c = c0;
    SegmentedMatmulTN(a, b, segments, c, 1.0f, 0.0f);
    EXPECT_EQ(MaxAbsDiff(c, c0), 0.0f);
  }
}

TEST(SegmentedMatmulTest, RejectsOutOfRangeSegments) {
  const Tensor a = RandTensor(6, 4, 1), b = RandTensor(6, 5, 2);
  Tensor c(4, 5);
  EXPECT_THROW(SegmentedMatmulTN(a, b, std::vector<std::int64_t>{0, 7}, c), Error);
  EXPECT_THROW(SegmentedMatmulTN(a, b, std::vector<std::int64_t>{4, 2}, c), Error);
}

// ---------------------------------------------------------------------------
// Bit-exact GEMM order. Every kernel must reproduce, bit for bit, a scalar
// reference of the per-element operation sequence gemm_kernel.h documents,
// fused or unfused as the shared probe reports. The tolerance tests above
// cannot tell a retiling that moves one rounding from one that does not;
// these can. Shapes cover every m % 8 and n % 16 rim (so n % 8 too), k below
// the NT lane count, ragged and multi-panel k, all four alpha/beta pairs,
// and row chunks that split register tiles across lanes.
// ---------------------------------------------------------------------------

using ::apt::testing::GemmFusesMultiplyAdd;

float MulAdd(float a, float b, float c, bool fused) {
  return fused ? std::fma(a, b, c) : a * b + c;
}

/// C[m, n] = alpha * sum_p a(i, p) b[p, j] + beta * C in the documented
/// order: beta first, then per k-panel acc = 0, acc += a(i, p) b(p, j) over
/// ascending p, and C += alpha * acc. `a_at(i, p)` reads op(A).
template <typename AAt>
void RefGemm(AAt a_at, const float* b, std::int64_t m, std::int64_t k, std::int64_t n,
             float* c, float alpha, float beta, bool fused) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float& cij = c[i * n + j];
      if (beta == 0.0f) {
        cij = 0.0f;
      } else if (beta != 1.0f) {
        cij *= beta;
      }
      for (std::int64_t p0 = 0; p0 < k; p0 += gemm::kKc) {
        float acc = 0.0f;
        for (std::int64_t p = p0; p < std::min(k, p0 + gemm::kKc); ++p) {
          acc = MulAdd(a_at(i, p), b[p * n + j], acc, fused);
        }
        cij = MulAdd(alpha, acc, cij, fused);
      }
    }
  }
}

/// C = alpha * A B^T + beta * C for A [m, k], B [n, k]: kNtLanes strided
/// partial sums, added in lane order, then the k % kNtLanes tail in order;
/// C = beta * C + alpha * acc with the beta product fused, or alpha * acc + 0
/// at beta 0.
void RefGemmNT(const float* a, const float* b, std::int64_t m, std::int64_t k,
               std::int64_t n, float* c, float alpha, float beta, bool fused) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      const float* arow = a + i * k;
      const float* brow = b + j * k;
      float lanes[gemm::kNtLanes] = {};
      std::int64_t p = 0;
      for (; p + gemm::kNtLanes <= k; p += gemm::kNtLanes) {
        for (std::int64_t l = 0; l < gemm::kNtLanes; ++l) {
          lanes[l] = MulAdd(arow[p + l], brow[p + l], lanes[l], fused);
        }
      }
      float acc = 0.0f;
      for (float lane : lanes) acc += lane;
      for (; p < k; ++p) acc = MulAdd(arow[p], brow[p], acc, fused);
      float& cij = c[i * n + j];
      cij = beta == 0.0f ? alpha * acc + 0.0f : MulAdd(beta, cij, alpha * acc, fused);
    }
  }
}

void ExpectSameBits(const Tensor& want, const Tensor& got) {
  ASSERT_TRUE(want.SameShape(got)) << want.ShapeString() << " vs " << got.ShapeString();
  for (std::int64_t i = 0; i < want.numel(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint32_t>(want.data()[i]),
              std::bit_cast<std::uint32_t>(got.data()[i]))
        << "element (" << i / want.cols() << ", " << i % want.cols() << ") of "
        << want.ShapeString() << ": want " << want.data()[i] << " got " << got.data()[i];
  }
}

struct GemmShape {
  std::int64_t m, k, n;
  float alpha, beta;
};

/// Every (m, n) with m in [1, 17] and n in [1, 33], each with a k and an
/// alpha/beta pair drawn in turn from the lists, plus shapes tall enough
/// that all-lane runs split C's rows mid-tile.
std::vector<GemmShape> BitExactShapes() {
  const std::int64_t ks[] = {1, 3, 7, 8, 13, 64, 256, 257, 300, 520};
  const float ab[][2] = {{1.0f, 0.0f}, {1.0f, 1.0f}, {0.5f, -1.5f}, {2.0f, 0.0f}};
  std::vector<GemmShape> shapes;
  std::size_t turn = 0;
  for (std::int64_t m = 1; m <= 17; ++m) {
    for (std::int64_t n = 1; n <= 33; ++n, ++turn) {
      const auto& [alpha, beta] = ab[turn / std::size(ks) % std::size(ab)];
      shapes.push_back({m, ks[turn % std::size(ks)], n, alpha, beta});
    }
  }
  for (const auto& [alpha, beta] : ab) {
    shapes.push_back({300, 300, 40, alpha, beta});
    shapes.push_back({257, 520, 33, alpha, beta});
    shapes.push_back({1003, 61, 24, alpha, beta});
  }
  return shapes;
}

std::string ShapeTrace(const GemmShape& s) {
  return (::testing::Message() << "m " << s.m << " k " << s.k << " n " << s.n << " alpha "
                               << s.alpha << " beta " << s.beta)
      .GetString();
}

TEST(GemmBitExactTest, LibraryKernelsMatchReferenceOrder) {
  const bool fused = GemmFusesMultiplyAdd();
  std::uint64_t seed = 7000;
  for (std::int64_t limit : {std::int64_t{1}, std::int64_t{0}}) {
    std::unique_ptr<ScopedParallelismLimit> lanes;
    if (limit > 0) lanes = std::make_unique<ScopedParallelismLimit>(limit);
    for (const GemmShape& s : BitExactShapes()) {
      SCOPED_TRACE(ShapeTrace(s) + " lanes " + std::to_string(limit));
      const Tensor c0 = RandTensor(s.m, s.n, seed++);
      {
        const Tensor a = RandTensor(s.m, s.k, seed++), b = RandTensor(s.k, s.n, seed++);
        Tensor want = c0, got = c0;
        RefGemm([&](std::int64_t i, std::int64_t p) { return a(i, p); }, b.data(), s.m, s.k,
                s.n, want.data(), s.alpha, s.beta, fused);
        Matmul(a, b, got, s.alpha, s.beta);
        ExpectSameBits(want, got);
      }
      {
        const Tensor a = RandTensor(s.k, s.m, seed++), b = RandTensor(s.k, s.n, seed++);
        Tensor want = c0, got = c0;
        RefGemm([&](std::int64_t i, std::int64_t p) { return a(p, i); }, b.data(), s.m, s.k,
                s.n, want.data(), s.alpha, s.beta, fused);
        MatmulTN(a, b, got, s.alpha, s.beta);
        ExpectSameBits(want, got);
      }
      {
        const Tensor a = RandTensor(s.m, s.k, seed++), b = RandTensor(s.n, s.k, seed++);
        Tensor want = c0, got = c0;
        RefGemmNT(a.data(), b.data(), s.m, s.k, s.n, want.data(), s.alpha, s.beta, fused);
        MatmulNT(a, b, got, s.alpha, s.beta);
        ExpectSameBits(want, got);
      }
      if (s.alpha == 1.0f && s.beta == 0.0f) {
        // Row window: rows [2, 2 + m) of a taller A.
        const Tensor b = RandTensor(s.k, s.n, seed++);
        Tensor want = c0, got = c0;
        const Tensor a = RandTensor(s.m + 4, s.k, seed++);
        RefGemm([&](std::int64_t i, std::int64_t p) { return a(2 + i, p); }, b.data(), s.m,
                s.k, s.n, want.data(), 1.0f, 0.0f, fused);
        Matmul(a, 2, b, got);
        ExpectSameBits(want, got);
      }
    }
  }
}

TEST(GemmBitExactTest, SegmentedMatchesReferenceOrder) {
  const bool fused = GemmFusesMultiplyAdd();
  std::uint64_t seed = 8000;
  for (std::int64_t limit : {std::int64_t{1}, std::int64_t{0}}) {
    std::unique_ptr<ScopedParallelismLimit> lanes;
    if (limit > 0) lanes = std::make_unique<ScopedParallelismLimit>(limit);
    for (const auto& [m, n] : {std::pair<std::int64_t, std::int64_t>{13, 7},
                               {9, 24}, {17, 33}, {8, 16}, {70, 128}}) {
      SCOPED_TRACE(::testing::Message() << "m " << m << " n " << n << " lanes " << limit);
      // SegmentedMatmulTN: each segment is its own A^T B with k-panels
      // counted from the segment start, the first at beta, later at 1.
      const std::vector<std::int64_t> segments{0, 1, 2, 7, 300, 301, 901};
      const Tensor a = RandTensor(segments.back(), m, seed++);
      const Tensor b = RandTensor(segments.back(), n, seed++);
      for (const auto& [alpha, beta] :
           {std::pair<float, float>{1.0f, 0.0f}, {0.5f, -1.5f}}) {
        Tensor want = RandTensor(m, n, seed++), got = want;
        for (std::size_t s = 0; s + 1 < segments.size(); ++s) {
          const std::int64_t r0 = segments[s];
          RefGemm([&](std::int64_t i, std::int64_t p) { return a(r0 + p, i); }, b.row(r0), m,
                  segments[s + 1] - r0, n, want.data(), alpha, s == 0 ? beta : 1.0f, fused);
        }
        SegmentedMatmulTN(a, b, segments, got, alpha, beta);
        ExpectSameBits(want, got);
      }
    }
  }
}

// The kernel templates at every tile shape a driver version uses, so a host
// without AVX-512 still checks the 8 x 16 geometry. Instantiated here, at
// this file's ISA; the probe on each instantiation picks its arithmetic
// class. Row ranges start past 0 and A rows are wider than k, as column
// slices of a wider matrix are.
template <int Mr, int Nr, int NtRows>
void ExpectTileShapeMatchesReference() {
  const auto nn = [](const Tensor& a, const Tensor& b, Tensor& c) {
    gemm::RowBlock<false, Mr, Nr>(a.data(), a.cols(), b.data(), b.cols(), c.data(), a.cols(),
                                  0, c.rows(), 1.0f, 0.0f);
  };
  const bool fused = GemmFusesMultiplyAdd(nn);
  std::uint64_t seed = 9000;
  for (const GemmShape& s : BitExactShapes()) {
    SCOPED_TRACE(ShapeTrace(s));
    const std::int64_t lo = std::min<std::int64_t>(3, s.m - 1), wide = s.k + 5;
    const Tensor c0 = RandTensor(s.m, s.n, seed++);
    const auto untouched_rows = [&](const Tensor& got) {
      return std::equal(c0.data(), c0.data() + lo * s.n, got.data());
    };
    {
      const Tensor a = RandTensor(s.m, wide, seed++), b = RandTensor(s.k, s.n, seed++);
      Tensor want = c0, got = c0;
      RefGemm([&](std::int64_t i, std::int64_t p) { return a(lo + i, 2 + p); }, b.data(),
              s.m - lo, s.k, s.n, want.row(lo), s.alpha, s.beta, fused);
      gemm::RowBlock<false, Mr, Nr>(a.data() + 2, wide, b.data(), s.n, got.data(), s.k, lo,
                                    s.m, s.alpha, s.beta);
      EXPECT_TRUE(untouched_rows(got));
      ExpectSameBits(want, got);
    }
    {
      const Tensor a = RandTensor(s.k, s.m, seed++), b = RandTensor(s.k, s.n, seed++);
      Tensor want = c0, got = c0;
      RefGemm([&](std::int64_t i, std::int64_t p) { return a(p, lo + i); }, b.data(),
              s.m - lo, s.k, s.n, want.row(lo), s.alpha, s.beta, fused);
      gemm::RowBlock<true, Mr, Nr>(a.data(), s.m, b.data(), s.n, got.data(), s.k, lo, s.m,
                                   s.alpha, s.beta);
      EXPECT_TRUE(untouched_rows(got));
      ExpectSameBits(want, got);
    }
    {
      const Tensor a = RandTensor(s.m, s.k, seed++), b = RandTensor(s.n, s.k, seed++);
      Tensor want = c0, got = c0;
      RefGemmNT(a.row(lo), b.data(), s.m - lo, s.k, s.n, want.row(lo), s.alpha, s.beta,
                fused);
      gemm::RowBlockNT<NtRows>(a.data(), b.data(), got.data(), s.k, s.n, lo, s.m, s.alpha,
                               s.beta);
      EXPECT_TRUE(untouched_rows(got));
      ExpectSameBits(want, got);
    }
    {
      // Segmented A^T B: an empty and one-row segments beside long ones
      // (at k 520 one crosses a k-panel), one MatmulTN per segment.
      std::vector<std::int64_t> segments{0, 1, 1, s.k / 2, s.k / 2 + 1, s.k};
      for (std::int64_t& r : segments) r = std::min(r, s.k);
      std::sort(segments.begin(), segments.end());
      const Tensor a = RandTensor(s.k, s.m, seed++), b = RandTensor(s.k, s.n, seed++);
      Tensor want = c0, got = c0;
      for (std::size_t g = 0; g + 1 < segments.size(); ++g) {
        const std::int64_t r0 = segments[g];
        RefGemm([&](std::int64_t i, std::int64_t p) { return a(r0 + p, lo + i); },
                b.data() + r0 * s.n, s.m - lo, segments[g + 1] - r0, s.n, want.row(lo), s.alpha,
                g == 0 ? s.beta : 1.0f, fused);
      }
      std::vector<std::int64_t> cuts;
      const std::int64_t pieces = gemm::SegmentPieces(segments, cuts);
      gemm::SegmentedRowBlockTN<Mr, Nr>(a.data(), s.m, b.data(), s.n, got.data(), cuts.data(),
                                        pieces, lo, s.m, s.alpha, s.beta);
      EXPECT_TRUE(untouched_rows(got));
      ExpectSameBits(want, got);
    }
  }
}

TEST(GemmBitExactTest, EveryTileShapeMatchesReferenceOrder) {
  ExpectTileShapeMatchesReference<4, 8, 2>();   // default
  ExpectTileShapeMatchesReference<8, 8, 4>();   // avx2
  ExpectTileShapeMatchesReference<8, 16, 4>();  // arch=x86-64-v4
}

TEST(ElementwiseTest, AxpyScaleAdd) {
  Tensor x(1, 4, {1, 2, 3, 4});
  Tensor y(1, 4, {10, 20, 30, 40});
  Axpy(2.0f, x, y);
  EXPECT_FLOAT_EQ(y(0, 3), 48);
  Scale(y, 0.5f);
  EXPECT_FLOAT_EQ(y(0, 0), 6);
  Tensor out(1, 4);
  Add(x, y, out);
  EXPECT_FLOAT_EQ(out(0, 0), 7);
}

TEST(ElementwiseTest, BiasRoundTrip) {
  Tensor x(3, 2);
  Tensor bias(1, 2, {1.5f, -2.0f});
  AddBiasRows(x, bias);
  for (std::int64_t i = 0; i < 3; ++i) {
    EXPECT_FLOAT_EQ(x(i, 0), 1.5f);
    EXPECT_FLOAT_EQ(x(i, 1), -2.0f);
  }
  Tensor gb(1, 2);
  BiasGradRows(x, gb);
  EXPECT_FLOAT_EQ(gb(0, 0), 4.5f);
  EXPECT_FLOAT_EQ(gb(0, 1), -6.0f);
}

TEST(ActivationTest, ReluForwardBackward) {
  Tensor x(1, 4, {-1, 0, 2, -3});
  Tensor y(1, 4);
  Relu(x, y);
  EXPECT_FLOAT_EQ(y(0, 0), 0);
  EXPECT_FLOAT_EQ(y(0, 2), 2);
  Tensor gy(1, 4, {1, 1, 1, 1});
  Tensor gx(1, 4);
  ReluBackward(x, gy, gx);
  EXPECT_FLOAT_EQ(gx(0, 0), 0);
  EXPECT_FLOAT_EQ(gx(0, 2), 1);
}

// The backward select passes exactly gy where x > 0 and +0.0f elsewhere:
// never -0.0f for a negative gradient (a 0/1 mask multiply would give it).
// 1000 elements run the vector body and its scalar rim.
TEST(ActivationTest, ReluBackwardSelectsGradientOrPositiveZero) {
  const Tensor x = RandTensor(1, 1000, 60), gy = RandTensor(1, 1000, 61);
  Tensor gx(1, 1000);
  ReluBackward(x, gy, gx);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float want = x(0, i) > 0.0f ? gy(0, i) : 0.0f;
    ASSERT_EQ(std::bit_cast<std::uint32_t>(gx(0, i)), std::bit_cast<std::uint32_t>(want))
        << "element " << i;
  }
}

TEST(GatherScatterTest, GatherRows) {
  const Tensor src = RandTensor(6, 3, 4);
  const std::vector<std::int64_t> idx{4, 0, 4};
  Tensor out(3, 3);
  GatherRows(src, idx, out);
  EXPECT_FLOAT_EQ(out(0, 1), src(4, 1));
  EXPECT_FLOAT_EQ(out(1, 2), src(0, 2));
  EXPECT_FLOAT_EQ(out(2, 0), src(4, 0));
  const std::vector<std::int64_t> bad{7};
  Tensor small(1, 3);
  EXPECT_THROW(GatherRows(src, bad, small), Error);
}

TEST(GatherScatterTest, ScatterAddAccumulatesDuplicates) {
  Tensor src(3, 2, {1, 1, 2, 2, 3, 3});
  const std::vector<std::int64_t> idx{0, 1, 0};
  Tensor dst(2, 2);
  ScatterAddRows(src, idx, dst);
  EXPECT_FLOAT_EQ(dst(0, 0), 4);  // 1 + 3
  EXPECT_FLOAT_EQ(dst(1, 0), 2);
}

TEST(LossTest, PerfectPredictionLowLoss) {
  Tensor logits(2, 3);
  logits(0, 1) = 20.0f;
  logits(1, 2) = 20.0f;
  const std::vector<std::int64_t> labels{1, 2};
  std::int64_t correct = 0;
  const float loss = SoftmaxCrossEntropy(logits, labels, nullptr, &correct);
  EXPECT_LT(loss, 1e-3f);
  EXPECT_EQ(correct, 2);
}

TEST(LossTest, UniformLogitsGiveLogC) {
  Tensor logits(4, 8);
  const std::vector<std::int64_t> labels{0, 1, 2, 3};
  const float loss = SoftmaxCrossEntropy(logits, labels, nullptr, nullptr);
  EXPECT_NEAR(loss, std::log(8.0f), 1e-5f);
}

TEST(LossTest, GradientMatchesFiniteDifference) {
  Tensor logits = RandTensor(3, 5, 6);
  const std::vector<std::int64_t> labels{2, 0, 4};
  Tensor grad(3, 5);
  SoftmaxCrossEntropy(logits, labels, &grad, nullptr);
  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < 3; ++i) {
    for (std::int64_t j = 0; j < 5; ++j) {
      Tensor lp = logits, lm = logits;
      lp(i, j) += eps;
      lm(i, j) -= eps;
      const float fp = SoftmaxCrossEntropy(lp, labels, nullptr, nullptr);
      const float fm = SoftmaxCrossEntropy(lm, labels, nullptr, nullptr);
      EXPECT_NEAR(grad(i, j), (fp - fm) / (2 * eps), 2e-3f)
          << "at (" << i << "," << j << ")";
    }
  }
}

TEST(LossTest, InvalidLabelThrows) {
  Tensor logits(1, 3);
  const std::vector<std::int64_t> labels{3};
  EXPECT_THROW(SoftmaxCrossEntropy(logits, labels, nullptr, nullptr), Error);
}

TEST(ReductionTest, MaxAbsDiffAndSumSquares) {
  Tensor a(1, 3, {1, 2, 3});
  Tensor b(1, 3, {1, 2.5f, 3});
  EXPECT_FLOAT_EQ(MaxAbsDiff(a, b), 0.5f);
}

TEST(InitTest, XavierRangeAndDeterminism) {
  Tensor w1(64, 64), w2(64, 64);
  Rng r1(42), r2(42);
  XavierUniform(w1, r1);
  XavierUniform(w2, r2);
  EXPECT_EQ(MaxAbsDiff(w1, w2), 0.0f);
  const float bound = std::sqrt(6.0f / 128.0f);
  for (std::int64_t i = 0; i < w1.numel(); ++i) {
    EXPECT_LE(std::fabs(w1.data()[i]), bound);
  }
}

}  // namespace
}  // namespace apt
