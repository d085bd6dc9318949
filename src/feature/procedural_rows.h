// Procedural feature rows, internal to apt_feature.
//
// feature_store.cpp dispatches between the scalar row generator and its
// AVX-512 version by ifunc (core/isa.h); the tests run both side by side.
// Both write the same floats, bit for bit.
#pragma once

#include <cstdint>

#include "core/isa.h"
#include "core/random.h"
#include "core/types.h"

namespace apt::procedural {

/// The column term's multiplier: element (v, col) mixes seed +
/// kGamma * (v + 1) + kColStep * (col + 1).
inline constexpr std::uint64_t kColStep = 0xbf58476d1ce4e5b9ULL;

/// Procedural feature value for (seed, node, col): splitmix64's mix
/// mapped to ~[-0.5, 0.5). Element-local, so any batching of any gather
/// reads the identical value.
inline float Feature(std::uint64_t seed, NodeId v, std::int64_t col) {
  const std::uint64_t x = Rng::Mix(seed + Rng::kGamma * (static_cast<std::uint64_t>(v) + 1) +
                                   kColStep * (static_cast<std::uint64_t>(col) + 1));
  return static_cast<float>(x >> 40) * (1.0f / 16777216.0f) - 0.5f;
}

/// out[c - col_lo] = Feature(seed, v, c) for c in [col_lo, col_hi).
inline void RowScalar(std::uint64_t seed, NodeId v, std::int64_t col_lo, std::int64_t col_hi,
                      float* out) {
  for (std::int64_t col = col_lo; col < col_hi; ++col) out[col - col_lo] = Feature(seed, v, col);
}

#if APT_ISA_DISPATCH
/// RowScalar, 8 columns per vector: the column term grows by kColStep per
/// column, the mix is lane-wise integer arithmetic, and x >> 40 < 2^24
/// converts to float exactly, so scaling by 2^-24 and subtracting 0.5 round
/// as the scalar expression does (fused or not: the product is exact).
__attribute__((target("arch=x86-64-v4"))) inline void RowV4(std::uint64_t seed, NodeId v,
                                                           std::int64_t col_lo,
                                                           std::int64_t col_hi, float* out) {
  const isa::U64x8 lane = {0, 1, 2, 3, 4, 5, 6, 7};
  isa::U64x8 x = seed + Rng::kGamma * (static_cast<std::uint64_t>(v) + 1) +
                 kColStep * (static_cast<std::uint64_t>(col_lo) + 1) + lane * kColStep;
  for (std::int64_t col = col_lo; col < col_hi; col += 8) {
    const __m256 f = _mm512_cvtepi64_ps((__m512i)(isa::Mix8(x) >> 40));
    _mm256_mask_storeu_ps(out + (col - col_lo), isa::FirstLanes(col_hi - col),
                          f * (1.0f / 16777216.0f) - 0.5f);
    x += 8 * kColStep;
  }
}
#endif

}  // namespace apt::procedural
