// The reservoir draws of one sampled row, internal to apt_sampling.
//
// neighbor_sampler.cpp dispatches between the scalar loop and its AVX-512
// version by ifunc (core/isa.h); the sampling tests run both side by side.
// Both make the same draws in the same order and leave the same reservoir,
// bit for bit.
#pragma once

#include <algorithm>
#include <cstdint>

#include "core/isa.h"
#include "core/random.h"
#include "core/types.h"

namespace apt::reservoir {

/// x % n for n >= 2, exactly (what Rng::NextBelow(n) makes of the draw x),
/// from recip = floor((2^64 - 1) / n): the quotient estimate mulhi(x, recip)
/// is floor(x / n) or one less, so one conditional subtraction finishes the
/// remainder. A multiply replaces the hardware division the reservoir draws
/// would otherwise wait on.
inline std::uint64_t ModByReciprocal(std::uint64_t x, std::uint64_t n, std::uint64_t recip) {
  const auto q = static_cast<std::uint64_t>((static_cast<unsigned __int128>(x) * recip) >> 64);
  const std::uint64_t r = x - q * n;
  return r >= n ? r - n : r;
}

/// The draws that land inside the reservoir, in draw order: hit h puts
/// neighbor nbr[h] into slot slot[h].
struct HitList {
  std::int64_t* slot;
  NodeId* nbr;
};

/// Reservoir sampling of `fanout` distinct neighbors out of deg > fanout,
/// uniform without replacement: the reservoir starts as the first `fanout`
/// neighbors, and neighbor i (i >= fanout) replaces slot NextBelow(i + 1)
/// of `draws` when that slot is below the fanout. Makes deg - fanout draws
/// from a copy of `draws`; the caller skips its generator past them.
/// recip[n] = floor((2^64 - 1) / n) for 2 <= n <= deg. `reservoir` has
/// fanout + 1 slots: the last one absorbs the draws past the fanout, so the
/// loop stores without a branch.
inline void DrawScalar(Rng draws, const NodeId* nbrs, std::int64_t deg, std::int64_t fanout,
                       const std::uint64_t* recip, NodeId* reservoir, HitList /*hits*/) {
  std::copy_n(nbrs, fanout, reservoir);
  for (std::int64_t i = fanout; i < deg; ++i) {
    const auto n = static_cast<std::uint64_t>(i + 1);
    const auto j = static_cast<std::int64_t>(ModByReciprocal(draws.Next(), n, recip[n]));
    reservoir[j < fanout ? j : fanout] = nbrs[i];
  }
}

#if APT_ISA_DISPATCH
/// The 64-bit products of the low 32 bits of each lane (vpmuludq; the maskz
/// form because GCC 12 warns on the plain one's undefined passthrough).
__attribute__((target("arch=x86-64-v4"))) inline isa::U64x8 MulLow32(isa::U64x8 u,
                                                                    isa::U64x8 v) {
  return (isa::U64x8)_mm512_maskz_mul_epu32(0xff, (__m512i)u, (__m512i)v);
}

/// floor(x * r / 2^64) per lane, exactly, from the four 32 x 32 -> 64-bit
/// partial products (AVX-512 has no 64-bit high multiply).
__attribute__((target("arch=x86-64-v4"))) inline isa::U64x8 MulHi64(isa::U64x8 x,
                                                                   isa::U64x8 r) {
  const isa::U64x8 xh = x >> 32, rh = r >> 32;
  const isa::U64x8 ll = MulLow32(x, r), lh = MulLow32(x, rh);
  const isa::U64x8 hl = MulLow32(xh, r), hh = MulLow32(xh, rh);
  // Bits 32..95 of the product; bit 64 and up carry into the result.
  const isa::U64x8 mid = (ll >> 32) + (lh & 0xffffffffULL) + (hl & 0xffffffffULL);
  return hh + (mid >> 32) + (lh >> 32) + (hl >> 32);
}

/// DrawScalar, 8 draws per vector. Draw t is Mix(state + (t + 1) * kGamma)
/// (splitmix64 is counter-based), reduced modulo i + 1 as ModByReciprocal
/// does. The hits are compressed onto `hits` without a branch (the list
/// holds deg - fanout + 8 entries: each vector stores 8 at the tail) and
/// replayed into the reservoir in draw order after the row, so every slot
/// ends with the neighbor of its last hit, as in the scalar loop.
__attribute__((target("arch=x86-64-v4"))) inline void DrawV4(
    Rng draws, const NodeId* nbrs, std::int64_t deg, std::int64_t fanout,
    const std::uint64_t* recip, NodeId* reservoir, HitList hits) {
  using isa::U64x8;
  std::copy_n(nbrs, fanout, reservoir);
  const U64x8 lane = {0, 1, 2, 3, 4, 5, 6, 7};
  U64x8 counter = draws.state() + (lane + 1) * Rng::kGamma;
  U64x8 n = lane + static_cast<std::uint64_t>(fanout + 1);
  const __m512i fan = _mm512_set1_epi64(fanout);
  std::int64_t count = 0;
  for (std::int64_t i = fanout; i < deg; i += 8) {
    const __mmask8 live = isa::FirstLanes(deg - i);
    const U64x8 x = isa::Mix8(counter);
    const U64x8 q = MulHi64(x, (U64x8)_mm512_maskz_loadu_epi64(live, recip + i + 1));
    U64x8 r = x - q * n;
    r = r >= n ? r - n : r;
    const __mmask8 hit = _mm512_mask_cmplt_epu64_mask(live, (__m512i)r, fan);
    const __m512i nbr = _mm512_maskz_loadu_epi64(live, nbrs + i);
    _mm512_storeu_si512(hits.slot + count, _mm512_maskz_compress_epi64(hit, (__m512i)r));
    _mm512_storeu_si512(hits.nbr + count, _mm512_maskz_compress_epi64(hit, nbr));
    count += __builtin_popcount(hit);
    counter += 8 * Rng::kGamma;
    n += 8;
  }
  for (std::int64_t h = 0; h < count; ++h) reservoir[hits.slot[h]] = hits.nbr[h];
}
#endif

}  // namespace apt::reservoir
