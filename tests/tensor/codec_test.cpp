// Codec unit tests: wire-byte accounting, value rounding semantics, and the
// determinism contract (rounding is independent of row batching and the
// parallel split) that the quantized strategy-parity suites build on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/random.h"
#include "runtime/parallel_for.h"
#include "tensor/codec.h"
#include "tensor/tensor.h"

namespace apt {
namespace {

Tensor RandTensor(std::int64_t rows, std::int64_t cols, std::uint64_t seed) {
  Tensor t(rows, cols);
  Rng rng(seed);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = rng.NextUniform(-2.0f, 2.0f);
  }
  return t;
}

TEST(Codec, ParseRoundTrips) {
  for (Codec c : {Codec::kIdentity, Codec::kBf16, Codec::kInt8,
                  Codec::kDeltaBitmask}) {
    Codec parsed = Codec::kIdentity;
    ASSERT_TRUE(ParseCodec(ToString(c), &parsed)) << ToString(c);
    EXPECT_EQ(parsed, c);
  }
  Codec parsed = Codec::kBf16;
  EXPECT_TRUE(ParseCodec("fp32", &parsed));
  EXPECT_EQ(parsed, Codec::kIdentity);
  EXPECT_FALSE(ParseCodec("fp16", &parsed));
}

TEST(Codec, WireBytes) {
  EXPECT_EQ(CodecWireBytes(Codec::kIdentity, 10, 32), 10 * 32 * 4);
  EXPECT_EQ(CodecWireBytes(Codec::kBf16, 10, 32), 10 * 32 * 2);
  EXPECT_EQ(CodecWireBytes(Codec::kInt8, 10, 32), 10 * 32 + 10 * 4);
  // Dense worst case: bitmap + every value.
  EXPECT_EQ(CodecWireBytes(Codec::kDeltaBitmask, 1, 64), 64 * 4 + 8);
  // Zero columns move nothing: no int8 scales, no delta bitmap or header.
  for (int c = 0; c < kNumCodecs; ++c) {
    const auto codec = static_cast<Codec>(c);
    EXPECT_EQ(CodecWireBytes(codec, 10, 0), 0) << ToString(codec);
    EXPECT_EQ(CodecWireBytes(codec, Tensor(10, 0)), 0) << ToString(codec);
  }
  EXPECT_DOUBLE_EQ(CodecDenseRatio(Codec::kBf16, 128), 0.5);
  EXPECT_DOUBLE_EQ(CodecDenseRatio(Codec::kInt8, 128),
                   (128.0 + 4.0) / (128.0 * 4.0));
}

TEST(Codec, DeltaBitmaskCountsNonzeros) {
  Tensor t(4, 16);
  t.data()[3] = 1.5f;
  t.data()[40] = -2.0f;
  // 2 nonzero floats + 64-slot bitmap + count header.
  EXPECT_EQ(CodecWireBytes(Codec::kDeltaBitmask, t), 2 * 4 + 64 / 8 + 8);
  // Lossless: rounding must not touch the values.
  Tensor copy = t;
  CodecRoundRows(Codec::kDeltaBitmask, copy);
  EXPECT_EQ(std::memcmp(copy.data(), t.data(),
                        static_cast<std::size_t>(t.numel()) * sizeof(float)),
            0);
}

TEST(Codec, Bf16RoundMatchesReference) {
  EXPECT_EQ(Bf16Round(1.0f), 1.0f);
  EXPECT_EQ(Bf16Round(-2.5f), -2.5f);  // exactly representable
  EXPECT_EQ(Bf16Round(0.0f), 0.0f);
  // bf16 keeps 7 mantissa bits, so the ulp at 1.0 is 2^-7. 1 + 2^-8 is
  // halfway between neighbours 1.0 and 1+2^-7; ties-to-even keeps the even
  // mantissa (1.0).
  EXPECT_EQ(Bf16Round(1.0f + std::ldexp(1.0f, -8)), 1.0f);
  // Just above the halfway point rounds up.
  EXPECT_EQ(Bf16Round(1.0f + std::ldexp(1.0f, -8) + std::ldexp(1.0f, -20)),
            1.0f + std::ldexp(1.0f, -7));
  EXPECT_TRUE(std::isnan(Bf16Round(std::nanf(""))));
  EXPECT_TRUE(std::isinf(Bf16Round(INFINITY)));
  // Idempotent: a bf16 value is its own round.
  Tensor t = RandTensor(8, 33, 11);
  CodecRoundRows(Codec::kBf16, t);
  Tensor again = t;
  CodecRoundRows(Codec::kBf16, again);
  EXPECT_EQ(std::memcmp(again.data(), t.data(),
                        static_cast<std::size_t>(t.numel()) * sizeof(float)),
            0);
}

TEST(Codec, Int8ErrorBounded) {
  Tensor t = RandTensor(16, 40, 7);
  Tensor rounded = t;
  CodecRoundRows(Codec::kInt8, rounded);
  for (std::int64_t r = 0; r < t.rows(); ++r) {
    float maxabs = 0.0f;
    for (std::int64_t c = 0; c < t.cols(); ++c) {
      maxabs = std::max(maxabs, std::fabs(t.data()[r * t.cols() + c]));
    }
    const float step = maxabs / 127.0f;
    for (std::int64_t c = 0; c < t.cols(); ++c) {
      const std::int64_t i = r * t.cols() + c;
      EXPECT_LE(std::fabs(rounded.data()[i] - t.data()[i]), 0.5f * step + 1e-6f)
          << "row " << r << " col " << c;
    }
  }
  // All-zero rows pass through untouched (no 0/0 scale).
  Tensor z(2, 8);
  CodecRoundRows(Codec::kInt8, z);
  for (std::int64_t i = 0; i < z.numel(); ++i) EXPECT_EQ(z.data()[i], 0.0f);
}

// The determinism contract: rounding a block of rows yields bit-identical
// results whether the rows are rounded together, one at a time, or under a
// different worker count. GDP and DNP batch the same rows differently, so
// quantized parity is impossible without this.
TEST(Codec, RoundingIndependentOfBatchingAndThreads) {
  for (Codec codec : {Codec::kBf16, Codec::kInt8}) {
    const Tensor src = RandTensor(64, 48, 19);
    Tensor whole = src;
    CodecRoundRows(codec, whole);

    Tensor rowwise = src;
    for (std::int64_t r = 0; r < src.rows(); ++r) {
      Tensor one(1, src.cols());
      std::memcpy(one.data(), src.data() + r * src.cols(),
                  static_cast<std::size_t>(src.cols()) * sizeof(float));
      CodecRoundRows(codec, one);
      std::memcpy(rowwise.data() + r * src.cols(), one.data(),
                  static_cast<std::size_t>(src.cols()) * sizeof(float));
    }
    EXPECT_EQ(std::memcmp(whole.data(), rowwise.data(),
                          static_cast<std::size_t>(src.numel()) * sizeof(float)),
              0)
        << ToString(codec) << " row batching changed the rounding";

    ScopedParallelismLimit serial(1);
    Tensor single = src;
    CodecRoundRows(codec, single);
    EXPECT_EQ(std::memcmp(whole.data(), single.data(),
                          static_cast<std::size_t>(src.numel()) * sizeof(float)),
              0)
        << ToString(codec) << " thread count changed the rounding";
  }
}

TEST(Codec, Pow2Ceil) {
  EXPECT_EQ(Pow2Ceil(0.0), 1.0);
  EXPECT_EQ(Pow2Ceil(1.0), 1.0);
  EXPECT_EQ(Pow2Ceil(3.0), 4.0);
  EXPECT_EQ(Pow2Ceil(4.0), 4.0);
  EXPECT_EQ(Pow2Ceil(-5.0), 8.0);
  EXPECT_EQ(Pow2Ceil(0.3), 0.5);
  EXPECT_EQ(Pow2Ceil(std::nan("")), 1.0);
}

TEST(Codec, XcodeSeconds) {
  EXPECT_EQ(CodecXcodeSeconds(Codec::kIdentity, 1 << 20, 1e9), 0.0);
  EXPECT_DOUBLE_EQ(CodecXcodeSeconds(Codec::kBf16, 1000, 1e3), 1.0);
  EXPECT_EQ(CodecXcodeSeconds(Codec::kInt8, 0, 1e9), 0.0);
}

}  // namespace
}  // namespace apt
