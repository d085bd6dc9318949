// Register-tiled GEMM kernels, templated on the tile shape. Internal to
// apt_tensor: ops.cpp instantiates them once per ISA version, at the tile
// that fits that version's register file, and the tensor tests instantiate
// every tile shape so each geometry's bits are checked on any host.
//
// Every C element takes one operation sequence under every tile. Beta comes
// first (C = 0 at beta 0, C *= beta unless beta is 1). Then, per kKc-long
// k-panel, acc = 0, acc += a(i,p) * b(p,j) for ascending p, and
// C += alpha * acc. Element-wise vector ops never re-associate, so the tile
// decides only which elements share registers, never how one is rounded:
// no -ffast-math, and retiling cannot change a bit. Whether `acc += a * b`
// and `C += alpha * acc` fuse into one rounding is fixed by the ISA the
// caller is compiled for (FMA contraction), never by the tile.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

namespace apt::gemm {

// k-panel length: an Mr x kKc A panel and a kKc x Nr B tile stay
// L1-resident while one C tile is updated.
inline constexpr std::int64_t kKc = 256;
// Strided partial-sum lanes of the NT kernel (C = A B^T): lane l sums the
// products at p = l mod kNtLanes, then the lanes are added in order.
inline constexpr std::int64_t kNtLanes = 8;
// B rows per NT tile: each A load feeds this many dot products.
inline constexpr int kNtCols = 4;

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"  // Vec never crosses a real ABI
                                          // boundary: every user is inlined.

// W-wide float vector. GCC lowers the element-wise ops to the widest ISA
// the caller allows (one zmm/ymm, or a run of SSE registers on baseline
// x86-64). Written explicitly because the autovectorizer turns the
// equivalent scalar tile into a slow shuffle-heavy SLP form.
template <int W>
struct VecOf {
  typedef float type __attribute__((vector_size(W * sizeof(float))));
};
template <int W>
using Vec = typename VecOf<W>::type;

template <int W>
inline Vec<W> LoadVec(const float* p) {
  Vec<W> v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}

template <int W>
inline void StoreVec(float* p, const Vec<W>& v) {
  __builtin_memcpy(p, &v, sizeof(v));
}

// acc[r] = sum of a(r, p) * B[p, 0:W] for ascending p in [p0, p1), from
// zero. kTransA selects the A element layout: a(r, p) = a[r * lda + p] for
// row-major A (C = A B), or a[p * lda + r] when `a` points into a [k, m]
// matrix (C = A^T B). The R accumulators live in vector registers for the
// whole piece, so the inner loop issues one B load and R multiply-adds per
// step with no C traffic.
template <bool kTransA, int R, int W>
inline void PieceSum(const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
                     std::int64_t p0, std::int64_t p1, Vec<W> (&acc)[R]) {
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r) acc[r] = Vec<W>{};
  const std::int64_t step = kTransA ? 1 : lda;
  for (std::int64_t p = p0; p < p1; ++p) {
    const Vec<W> bv = LoadVec<W>(b + p * ldb);
    const float* ap = kTransA ? a + p * lda : a + p;
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r) acc[r] += ap[r * step] * bv;
  }
}

// C[0:R, 0:W] += alpha * (A-tile * B) over the k-pieces [cuts[q],
// cuts[q + 1]), q < pieces (at least one), in order: each piece is summed
// from zero and then added into C. C stays in registers from the end of the
// first piece to the last, so it is loaded and stored once however many
// pieces there are; with one piece it is loaded only after the sum, as the
// accumulators need every register then.
template <bool kTransA, int R, int W>
inline void Tile(const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
                 float* c, std::int64_t ldc, const std::int64_t* cuts, std::int64_t pieces,
                 float alpha) {
  Vec<W> acc[R] = {};
  Vec<W> cv[R] = {};
  PieceSum<kTransA, R, W>(a, lda, b, ldb, cuts[0], cuts[1], acc);
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r) cv[r] = LoadVec<W>(c + r * ldc) + alpha * acc[r];
  for (std::int64_t q = 1; q < pieces; ++q) {
    PieceSum<kTransA, R, W>(a, lda, b, ldb, cuts[q], cuts[q + 1], acc);
#pragma GCC unroll 16
    for (int r = 0; r < R; ++r) cv[r] = cv[r] + alpha * acc[r];
  }
#pragma GCC unroll 16
  for (int r = 0; r < R; ++r) StoreVec<W>(c + r * ldc, cv[r]);
}

// Scalar update of the rim columns, C[0:R, 0:nr] for nr < 8, over the same
// pieces.
template <bool kTransA, int R>
inline void RimTile(const float* a, std::int64_t lda, const float* b, std::int64_t ldb,
                    float* c, std::int64_t ldc, const std::int64_t* cuts,
                    std::int64_t pieces, std::int64_t nr, float alpha) {
  float cv[R][8] = {};
  for (int r = 0; r < R; ++r) {
    for (std::int64_t j = 0; j < nr; ++j) cv[r][j] = c[r * ldc + j];
  }
  for (std::int64_t q = 0; q < pieces; ++q) {
    float acc[R][8] = {};
    for (std::int64_t p = cuts[q]; p < cuts[q + 1]; ++p) {
      const float* brow = b + p * ldb;
      for (int r = 0; r < R; ++r) {
        const float av = kTransA ? a[p * lda + r] : a[r * lda + p];
        for (std::int64_t j = 0; j < nr; ++j) acc[r][j] += av * brow[j];
      }
    }
    for (int r = 0; r < R; ++r) {
      for (std::int64_t j = 0; j < nr; ++j) cv[r][j] += alpha * acc[r][j];
    }
  }
  for (int r = 0; r < R; ++r) {
    for (std::int64_t j = 0; j < nr; ++j) c[r * ldc + j] = cv[r][j];
  }
}

// R rows of C across all n columns, over the given k-pieces: Nr-wide tiles,
// then one 8-wide step when Nr is wider, then the scalar rim.
template <bool kTransA, int R, int Nr>
inline void RowStrip(const float* a, std::int64_t lda, const float* b, std::int64_t n,
                     float* c, const std::int64_t* cuts, std::int64_t pieces, float alpha) {
  std::int64_t j = 0;
  for (; j + Nr <= n; j += Nr) {
    Tile<kTransA, R, Nr>(a, lda, b + j, n, c + j, n, cuts, pieces, alpha);
  }
  if constexpr (Nr > 8) {
    for (; j + 8 <= n; j += 8) {
      Tile<kTransA, R, 8>(a, lda, b + j, n, c + j, n, cuts, pieces, alpha);
    }
  }
  if (j < n) RimTile<kTransA, R>(a, lda, b + j, n, c + j, n, cuts, pieces, n - j, alpha);
}

// RowStrip at a run-time row count mr <= R.
template <bool kTransA, int R, int Nr>
inline void PartialStrip(std::int64_t mr, const float* a, std::int64_t lda, const float* b,
                         std::int64_t n, float* c, const std::int64_t* cuts,
                         std::int64_t pieces, float alpha) {
  if (mr == R) {
    RowStrip<kTransA, R, Nr>(a, lda, b, n, c, cuts, pieces, alpha);
  } else if constexpr (R > 1) {
    PartialStrip<kTransA, R - 1, Nr>(mr, a, lda, b, n, c, cuts, pieces, alpha);
  }
}

// Beta, the first operation on every C element: C = 0 at beta 0, C *= beta
// unless beta is 1.
inline void ApplyBeta(float* c, std::int64_t n, std::int64_t lo, std::int64_t hi,
                      float beta) {
  for (std::int64_t i = lo; i < hi; ++i) {
    float* crow = c + i * n;
    if (beta == 0.0f) {
      std::fill(crow, crow + n, 0.0f);
    } else if (beta != 1.0f) {
      for (std::int64_t j = 0; j < n; ++j) crow[j] *= beta;
    }
  }
}

// A's tile for C rows starting at i, indexed by absolute p.
template <bool kTransA>
inline const float* ATile(const float* a, std::int64_t lda, std::int64_t i) {
  return kTransA ? a + i : a + i * lda;
}

// Applies beta and runs the tiled update for C rows [lo, hi) of C = op(A) B
// with C and B n floats wide, one kKc-long k-panel at a time. `k` is the
// contraction length; lda is A's row stride for row-major A (>= k, so A may
// be a column slice of a wider matrix) and m (C rows) for A^T.
template <bool kTransA, int Mr, int Nr>
inline void RowBlock(const float* a, std::int64_t lda, const float* b, std::int64_t n,
                     float* c, std::int64_t k, std::int64_t lo, std::int64_t hi, float alpha,
                     float beta) {
  ApplyBeta(c, n, lo, hi, beta);
  for (std::int64_t p0 = 0; p0 < k; p0 += kKc) {
    const std::int64_t panel[2] = {p0, std::min(k, p0 + kKc)};
    for (std::int64_t i = lo; i < hi; i += Mr) {
      PartialStrip<kTransA, Mr, Nr>(std::min<std::int64_t>(Mr, hi - i),
                                    ATile<kTransA>(a, lda, i), lda, b, n, c + i * n, panel, 1,
                                    alpha);
    }
  }
}

// The k-pieces of a segmented A^T B: each segment's rows cut into kKc-long
// panels counted from the segment's first row, in order; empty segments
// add none. cuts[0] is the first segment's first row and piece q is rows
// [cuts[q], cuts[q + 1]). Returns the number of pieces.
inline std::int64_t SegmentPieces(std::span<const std::int64_t> segments,
                                  std::vector<std::int64_t>& cuts) {
  cuts.assign(1, segments.front());
  for (std::size_t s = 0; s + 1 < segments.size(); ++s) {
    for (std::int64_t p = segments[s]; p < segments[s + 1];) {
      p = std::min(segments[s + 1], p + kKc);
      cuts.push_back(p);
    }
  }
  return static_cast<std::int64_t>(cuts.size()) - 1;
}

// C rows [lo, hi) of C = beta * C + alpha * sum over the pieces of
// A_q^T B_q, A [k, m] and B [k, n] (cuts from SegmentPieces). Runs of
// consecutive pieces that together span at most kKc rows share one pass
// over C's tiles, so a tile is loaded and stored once per run, not once per
// segment, while the run's A and B rows stay cache-resident across the
// tiles. Every C element still takes beta, then per piece acc = 0,
// acc += a * b, C += alpha * acc: the sequence of one MatmulTN per segment.
template <int Mr, int Nr>
inline void SegmentedRowBlockTN(const float* a, std::int64_t m, const float* b,
                                std::int64_t n, float* c, const std::int64_t* cuts,
                                std::int64_t pieces, std::int64_t lo, std::int64_t hi,
                                float alpha, float beta) {
  ApplyBeta(c, n, lo, hi, beta);
  for (std::int64_t q0 = 0, q1 = 0; q0 < pieces; q0 = q1) {
    for (q1 = q0 + 1; q1 < pieces && cuts[q1 + 1] - cuts[q0] <= kKc;) ++q1;
    for (std::int64_t i = lo; i < hi; i += Mr) {
      PartialStrip<true, Mr, Nr>(std::min<std::int64_t>(Mr, hi - i), a + i, m, b, n,
                                 c + i * n, cuts + q0, q1 - q0, alpha);
    }
  }
}

// C[0:RA, 0:RB] of C = alpha * A B^T + beta * C, where A's RA rows and B's
// RB rows are k floats long and C's rows n floats apart. Each dot product
// keeps kNtLanes strided partial sums, adds them in lane order, then the
// k % kNtLanes tail in order. kBetaZero selects C = alpha * acc + 0 over
// C = beta * C + alpha * acc, so each form is one fixed expression and FMA
// contraction (where the ISA has it) fuses the same product in every tile.
template <bool kBetaZero, int RA, int RB>
inline void TileNT(const float* a, const float* b, float* c, std::int64_t k, std::int64_t n,
                   float alpha, float beta) {
  using V = Vec<kNtLanes>;
  V lanes[RA][RB] = {};
  std::int64_t p = 0;
  for (; p + kNtLanes <= k; p += kNtLanes) {
    V av[RA];
#pragma GCC unroll 16
    for (int ra = 0; ra < RA; ++ra) av[ra] = LoadVec<kNtLanes>(a + ra * k + p);
#pragma GCC unroll 16
    for (int rb = 0; rb < RB; ++rb) {
      const V bv = LoadVec<kNtLanes>(b + rb * k + p);
#pragma GCC unroll 16
      for (int ra = 0; ra < RA; ++ra) lanes[ra][rb] += av[ra] * bv;
    }
  }
  // Fully unrolled so `lanes` stays in registers.
#pragma GCC unroll 16
  for (int ra = 0; ra < RA; ++ra) {
    const float* arow = a + ra * k;
#pragma GCC unroll 16
    for (int rb = 0; rb < RB; ++rb) {
      const float* brow = b + rb * k;
      float acc = 0.0f;
#pragma GCC unroll 8
      for (std::int64_t l = 0; l < kNtLanes; ++l) acc += lanes[ra][rb][l];
      // The tail has fewer than kNtLanes terms. The early exit keeps it a
      // scalar chain: a single-exit loop may be vectorized as an in-order
      // reduction, whose vector multiplies cannot contract into the adds.
#pragma GCC unroll 8
      for (std::int64_t t = 0; t < kNtLanes - 1; ++t) {
        if (p + t >= k) break;
        acc += arow[p + t] * brow[p + t];
      }
      float& cj = c[ra * n + rb];
      cj = kBetaZero ? alpha * acc + 0.0f : beta * cj + alpha * acc;
    }
  }
}

// RA rows of C = alpha * A B^T + beta * C across all n columns.
template <bool kBetaZero, int RA>
inline void RowStripNT(const float* a, const float* b, float* c, std::int64_t k,
                       std::int64_t n, float alpha, float beta) {
  std::int64_t j = 0;
  for (; j + kNtCols <= n; j += kNtCols) {
    TileNT<kBetaZero, RA, kNtCols>(a, b + j * k, c + j, k, n, alpha, beta);
  }
  for (; j < n; ++j) TileNT<kBetaZero, RA, 1>(a, b + j * k, c + j, k, n, alpha, beta);
}

template <bool kBetaZero, int Ma>
inline void RowBlockNTImpl(const float* a, const float* b, float* c, std::int64_t k,
                           std::int64_t n, std::int64_t lo, std::int64_t hi, float alpha,
                           float beta) {
  std::int64_t i = lo;
  for (; i + Ma <= hi; i += Ma) {
    RowStripNT<kBetaZero, Ma>(a + i * k, b, c + i * n, k, n, alpha, beta);
  }
  for (; i < hi; ++i) RowStripNT<kBetaZero, 1>(a + i * k, b, c + i * n, k, n, alpha, beta);
}

// Rows [lo, hi) of C = alpha * A B^T + beta * C for row-major A [m, k] and
// B [n, k]: Ma A rows per pass, then the leftover rows one at a time.
template <int Ma>
inline void RowBlockNT(const float* a, const float* b, float* c, std::int64_t k,
                       std::int64_t n, std::int64_t lo, std::int64_t hi, float alpha,
                       float beta) {
  if (beta == 0.0f) {
    RowBlockNTImpl<true, Ma>(a, b, c, k, n, lo, hi, alpha, beta);
  } else {
    RowBlockNTImpl<false, Ma>(a, b, c, k, n, lo, hi, alpha, beta);
  }
}

#pragma GCC diagnostic pop

}  // namespace apt::gemm
