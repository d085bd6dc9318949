// Feature/gradient compression codecs: identity, bf16, int8 per-row
// symmetric quantization, and a lossless delta+bitmask form for sparse
// gradients.
//
// A codec plays two roles in the simulator:
//  - VALUE effect: CodecRoundRows applies the encode+decode round trip in
//    place ("round to the codec grid"). Lossy codecs change values; identity
//    and delta+bitmask are lossless no-ops.
//  - BYTE effect: CodecWireBytes says how many bytes the payload occupies on
//    the wire / in a cache tier, which is what transfer-time and
//    fault-injection accounting charge.
//
// Determinism contract: CodecRoundRows on identical row data yields
// bit-identical results regardless of caller, thread count, or call site —
// rounding is elementwise (bf16) or per-row with a fixed reduction order
// (int8), never dependent on how rows are batched. The strategy-equivalence
// suites rely on this.
#pragma once

#include <cstdint>
#include <string_view>

#include "tensor/tensor.h"

namespace apt {

enum class Codec : std::uint8_t {
  kIdentity = 0,      ///< fp32 on the wire; values untouched.
  kBf16 = 1,          ///< round-to-nearest-even bfloat16; 2 bytes/elem.
  kInt8 = 2,          ///< per-row symmetric int8 + one fp32 scale per row.
  kDeltaBitmask = 3,  ///< lossless sparse: bitmap + packed nonzeros.
};

inline constexpr int kNumCodecs = 4;

const char* ToString(Codec codec);

/// Parses "identity" / "bf16" / "int8" / "delta". Returns false on mismatch.
bool ParseCodec(std::string_view name, Codec* out);

/// Wire bytes for a dense `rows x cols` fp32 payload. For kDeltaBitmask,
/// which depends on content, this is the dense worst case (all nonzero);
/// use the Tensor overload when the data is at hand. Zero columns move
/// nothing under every codec: no per-row scales, no header.
std::int64_t CodecWireBytes(Codec codec, std::int64_t rows, std::int64_t cols);

/// Wire bytes for this specific tensor (kDeltaBitmask counts nonzeros; zero
/// columns are 0 bytes, as above).
std::int64_t CodecWireBytes(Codec codec, const Tensor& t);

/// wire/logical byte ratio for dense payloads of width `cols`.
double CodecDenseRatio(Codec codec, std::int64_t cols);

/// Applies the encode+decode value round trip in place. No-op for lossless
/// codecs. Parallel over rows; per-element results are independent of the
/// parallel split.
void CodecRoundRows(Codec codec, Tensor& t);

/// Seconds of encode (or decode — symmetric one-pass model) compute for
/// `logical_bytes` of fp32 payload at `bytes_per_s`. 0 for identity: no
/// kernel runs at all.
double CodecXcodeSeconds(Codec codec, std::int64_t logical_bytes,
                         double bytes_per_s);

/// True when the codec changes values (bf16/int8).
inline bool CodecIsLossy(Codec codec) {
  return codec == Codec::kBf16 || codec == Codec::kInt8;
}

/// Round-to-nearest-even bfloat16 round trip of one float (Inf/NaN pass
/// through). Exposed for tests and the canonical-grid math.
float Bf16Round(float v);

/// Smallest power of two >= |x|, or 1.0 for x == 0 / non-finite x. Grids
/// built from power-of-two magnitudes make every partial sum an exact
/// multiple of the grid step, so double accumulation of grid-rounded terms
/// is order- and grouping-invariant (see DESIGN.md invariant 8).
double Pow2Ceil(double x);

}  // namespace apt
