// Runtime ISA dispatch for the host's hot kernels.
//
// The binary stays baseline x86-64. A kernel with a vector version is
// defined once per ISA, under target("default") and target("arch=x86-64-v4")
// (the GEMM drivers and codecs add "avx2"), and GCC's ifunc resolution picks
// the version the host runs when the program is loaded. APT_ISA_DISPATCH is
// 1 where that is allowed: GCC on x86-64, outside sanitizer builds, since
// ifunc resolvers run during relocation, before a sanitizer runtime is
// initialized, and crash at startup. Elsewhere only the scalar (default)
// code is compiled.
#pragma once

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#define APT_ISA_DISPATCH 1
#else
#define APT_ISA_DISPATCH 0
#endif

#if APT_ISA_DISPATCH
#include <immintrin.h>

#include <cstdint>

namespace apt::isa {

/// 8 unsigned 64-bit lanes. Arithmetic, shifts and comparisons on it are
/// GCC's lane-wise vector operators (a multiply is AVX-512DQ's vpmullq);
/// intrinsics take it through a cast to __m512i.
typedef std::uint64_t U64x8 __attribute__((vector_size(64)));

/// Rng::Mix (splitmix64's output function) on 8 counters at once, exactly:
/// the same integer operations, lane by lane.
__attribute__((target("arch=x86-64-v4"))) inline U64x8 Mix8(U64x8 z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The mask of the first min(n, 8) lanes, for n >= 1.
__attribute__((target("arch=x86-64-v4"))) inline __mmask8 FirstLanes(std::int64_t n) {
  return n >= 8 ? __mmask8{0xff} : static_cast<__mmask8>((1u << n) - 1u);
}

}  // namespace apt::isa
#endif
