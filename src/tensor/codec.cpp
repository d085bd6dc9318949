#include "tensor/codec.h"

#include <algorithm>
#include <cmath>

#include "core/isa.h"
#include "core/logging.h"
#include "runtime/parallel_for.h"

namespace apt {

namespace {

// Grain for row-parallel kernels: keep serial below ~16k elements.
std::int64_t RowGrain(std::int64_t cols) {
  return std::max<std::int64_t>(1, 16384 / std::max<std::int64_t>(1, cols));
}

// Runtime ISA dispatch, same recipe as the GEMM drivers (ops.cpp): baseline
// binary, ifunc-resolved AVX2 / AVX-512 clones, off where APT_ISA_DISPATCH
// is (core/isa.h).
#if APT_ISA_DISPATCH
#define APT_CODEC_CLONES \
  __attribute__((target_clones("default", "avx2", "arch=x86-64-v4"), flatten))
#else
#define APT_CODEC_CLONES
#endif

inline std::uint32_t FloatBits(float v) {
  std::uint32_t u;
  __builtin_memcpy(&u, &v, sizeof(u));
  return u;
}

inline float BitsFloat(std::uint32_t u) {
  float v;
  __builtin_memcpy(&v, &u, sizeof(v));
  return v;
}

inline float Bf16RoundScalar(float v) {
  std::uint32_t u = FloatBits(v);
  if ((u & 0x7f800000u) == 0x7f800000u) return v;  // Inf/NaN pass through
  const std::uint32_t lsb = (u >> 16) & 1u;
  u += 0x7fffu + lsb;  // round to nearest, ties to even
  u &= 0xffff0000u;
  return BitsFloat(u);
}

APT_CODEC_CLONES void Bf16RoundRange(float* p, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) p[i] = Bf16RoundScalar(p[i]);
}

// Per-row symmetric int8: scale = maxabs/127, q = clamp(rint(v/scale)),
// v' = q*scale. The maxabs reduction is register-blocked into kLanes
// independent accumulators (max is associative, so the blocked order equals
// the serial order bit-for-bit), and the quantize loop is a straight-line
// elementwise pass the clones vectorize.
constexpr std::int64_t kLanes = 8;

APT_CODEC_CLONES void Int8RoundRowRange(float* base, std::int64_t cols,
                                        std::int64_t lo, std::int64_t hi) {
  for (std::int64_t r = lo; r < hi; ++r) {
    float* row = base + r * cols;
    float acc[kLanes] = {};
    std::int64_t j = 0;
    for (; j + kLanes <= cols; j += kLanes) {
      for (std::int64_t l = 0; l < kLanes; ++l) {
        acc[l] = std::max(acc[l], std::fabs(row[j + l]));
      }
    }
    float maxabs = 0.0f;
    for (std::int64_t l = 0; l < kLanes; ++l) maxabs = std::max(maxabs, acc[l]);
    for (; j < cols; ++j) maxabs = std::max(maxabs, std::fabs(row[j]));
    if (maxabs == 0.0f || !std::isfinite(maxabs)) continue;
    const float scale = maxabs / 127.0f;
    const float inv = 127.0f / maxabs;
    for (std::int64_t k = 0; k < cols; ++k) {
      float q = __builtin_rintf(row[k] * inv);
      q = std::min(127.0f, std::max(-127.0f, q));
      row[k] = q * scale;
    }
  }
}

std::int64_t CountNonzero(const Tensor& t) {
  const float* p = t.data();
  std::int64_t nnz = 0;
  for (std::int64_t i = 0; i < t.numel(); ++i) nnz += (p[i] != 0.0f) ? 1 : 0;
  return nnz;
}

}  // namespace

const char* ToString(Codec codec) {
  switch (codec) {
    case Codec::kIdentity: return "identity";
    case Codec::kBf16: return "bf16";
    case Codec::kInt8: return "int8";
    case Codec::kDeltaBitmask: return "delta";
  }
  return "unknown";
}

bool ParseCodec(std::string_view name, Codec* out) {
  if (name == "identity" || name == "fp32") *out = Codec::kIdentity;
  else if (name == "bf16") *out = Codec::kBf16;
  else if (name == "int8") *out = Codec::kInt8;
  else if (name == "delta" || name == "delta_bitmask") *out = Codec::kDeltaBitmask;
  else return false;
  return true;
}

std::int64_t CodecWireBytes(Codec codec, std::int64_t rows, std::int64_t cols) {
  if (cols == 0) return 0;  // e.g. an empty NFP column slice
  const std::int64_t numel = rows * cols;
  switch (codec) {
    case Codec::kIdentity:
      return numel * 4;
    case Codec::kBf16:
      return numel * 2;
    case Codec::kInt8:
      return numel + rows * 4;  // 1 byte/elem + fp32 scale per row
    case Codec::kDeltaBitmask:
      // Content unknown: dense worst case (bitmap + every value).
      return numel * 4 + (numel + 7) / 8;
  }
  return numel * 4;
}

std::int64_t CodecWireBytes(Codec codec, const Tensor& t) {
  if (codec == Codec::kDeltaBitmask && t.cols() > 0) {
    // Bitmap of occupied slots + packed nonzero values + a count header.
    return CountNonzero(t) * 4 + (t.numel() + 7) / 8 + 8;
  }
  return CodecWireBytes(codec, t.rows(), t.cols());
}

double CodecDenseRatio(Codec codec, std::int64_t cols) {
  if (cols <= 0) return 1.0;
  return static_cast<double>(CodecWireBytes(codec, 1, cols)) /
         static_cast<double>(cols * 4);
}

void CodecRoundRows(Codec codec, Tensor& t) {
  switch (codec) {
    case Codec::kIdentity:
    case Codec::kDeltaBitmask:
      return;  // lossless
    case Codec::kBf16: {
      float* p = t.data();
      const std::int64_t cols = std::max<std::int64_t>(1, t.cols());
      ParallelForChunks(
          0, t.numel(),
          [p](std::int64_t lo, std::int64_t hi) {
            Bf16RoundRange(p + lo, hi - lo);
          },
          RowGrain(1) * cols);
      return;
    }
    case Codec::kInt8: {
      // Scales span whole rows, so the parallel split is over rows only.
      float* p = t.data();
      const std::int64_t cols = t.cols();
      ParallelForChunks(
          0, t.rows(),
          [p, cols](std::int64_t lo, std::int64_t hi) {
            Int8RoundRowRange(p, cols, lo, hi);
          },
          RowGrain(cols));
      return;
    }
  }
}

double CodecXcodeSeconds(Codec codec, std::int64_t logical_bytes,
                         double bytes_per_s) {
  if (codec == Codec::kIdentity || logical_bytes <= 0 || bytes_per_s <= 0.0) {
    return 0.0;
  }
  // One streaming pass over the fp32 payload per encode (or decode).
  return static_cast<double>(logical_bytes) / bytes_per_s;
}

float Bf16Round(float v) { return Bf16RoundScalar(v); }

double Pow2Ceil(double x) {
  x = std::fabs(x);
  if (x == 0.0 || !std::isfinite(x)) return 1.0;
  int e = 0;
  const double m = std::frexp(x, &e);  // x = m * 2^e with m in [0.5, 1)
  return m == 0.5 ? x : std::ldexp(1.0, e);
}

}  // namespace apt
