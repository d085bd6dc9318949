// The AVX-512 versions of the sampler's reservoir draws and of the feature
// store's procedural rows, run side by side with their scalar versions on
// random inputs. The library runs one version per host (core/isa.h); these
// tests run both on any host that has x86-64-v4, and skip with a message
// where it is missing or the vector versions are compiled out (sanitizer and
// non-GCC builds), so the log shows whether they ran.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "core/isa.h"
#include "core/random.h"
#include "feature/procedural_rows.h"
#include "sampling/reservoir_draws.h"

namespace apt {
namespace {

#if APT_ISA_DISPATCH

#define APT_SKIP_WITHOUT_V4()                                          \
  do {                                                                 \
    if (!__builtin_cpu_supports("x86-64-v4")) {                       \
      GTEST_SKIP() << "host lacks x86-64-v4: vector kernels not run"; \
    }                                                                  \
  } while (false)

// MulHi64 on 8 lanes read from and written to memory (a vector argument
// would cross the ABI of this file's baseline ISA).
__attribute__((target("arch=x86-64-v4"))) void MulHi64Lanes(const std::uint64_t* x,
                                                            const std::uint64_t* r,
                                                            std::uint64_t* out) {
  isa::U64x8 xv, rv;
  __builtin_memcpy(&xv, x, sizeof(xv));
  __builtin_memcpy(&rv, r, sizeof(rv));
  const isa::U64x8 hi = reservoir::MulHi64(xv, rv);
  __builtin_memcpy(out, &hi, sizeof(hi));
}

// The high words of 64 x 64-bit products, against the 128-bit multiply,
// with carries out of every partial product.
TEST(VectorKernelTest, MulHi64MatchesWideMultiply) {
  APT_SKIP_WITHOUT_V4();
  Rng rng(1);
  const std::uint64_t edges[] = {0, 1, 0xffffffffULL, 0x100000000ULL, ~std::uint64_t{0},
                                 ~std::uint64_t{0} - 1, 0x8000000000000000ULL};
  std::vector<std::uint64_t> xs, rs;
  for (std::uint64_t x : edges) {
    for (std::uint64_t r : edges) {
      xs.push_back(x);
      rs.push_back(r);
    }
  }
  while (xs.size() % 8 != 0 || xs.size() < 4096) {
    xs.push_back(rng.Next());
    rs.push_back(rng.NextBelow(4) == 0 ? rng.Next() >> rng.NextBelow(64) : rng.Next());
  }
  for (std::size_t i = 0; i < xs.size(); i += 8) {
    std::uint64_t got[8];
    MulHi64Lanes(&xs[i], &rs[i], got);
    for (std::size_t l = 0; l < 8; ++l) {
      const auto want = static_cast<std::uint64_t>(
          (static_cast<unsigned __int128>(xs[i + l]) * rs[i + l]) >> 64);
      ASSERT_EQ(got[l], want) << std::hex << xs[i + l] << " * " << rs[i + l];
    }
  }
}

// Rows of every length past the fanout up to 40 draws, plus hubs, at random
// generator states: the reservoirs match slot for slot.
TEST(VectorKernelTest, ReservoirDrawsMatchScalar) {
  APT_SKIP_WITHOUT_V4();
  Rng rng(2);
  std::vector<std::uint64_t> recip{0, 0};
  for (int round = 0; round < 3000; ++round) {
    const auto fanout = static_cast<std::int64_t>(1 + rng.NextBelow(25));
    const auto deg = fanout + 1 +
                     static_cast<std::int64_t>(rng.NextBelow(round % 50 == 0 ? 6000 : 40));
    for (auto n = static_cast<std::uint64_t>(recip.size());
         n <= static_cast<std::uint64_t>(deg); ++n) {
      recip.push_back(~std::uint64_t{0} / n);
    }
    std::vector<NodeId> nbrs(static_cast<std::size_t>(deg));
    for (NodeId& u : nbrs) u = static_cast<NodeId>(rng.Next() >> 1);
    const Rng draws(rng.Next());
    std::vector<std::int64_t> hit_slot(static_cast<std::size_t>(deg) + 8);
    std::vector<NodeId> hit_nbr(hit_slot.size());
    std::vector<NodeId> want(static_cast<std::size_t>(fanout) + 1), got(want.size());
    reservoir::DrawScalar(draws, nbrs.data(), deg, fanout, recip.data(), want.data(), {});
    reservoir::DrawV4(draws, nbrs.data(), deg, fanout, recip.data(), got.data(),
                      {hit_slot.data(), hit_nbr.data()});
    for (std::int64_t s = 0; s < fanout; ++s) {
      ASSERT_EQ(got[static_cast<std::size_t>(s)], want[static_cast<std::size_t>(s)])
          << "slot " << s << " fanout " << fanout << " degree " << deg << " round " << round;
    }
  }
}

// Every window [col_lo, col_hi) of up to 40 columns, so every tail length,
// at random seeds and node ids: the floats match bit for bit, and nothing is
// written past the window.
TEST(VectorKernelTest, ProceduralRowsMatchScalar) {
  APT_SKIP_WITHOUT_V4();
  Rng rng(3);
  for (int round = 0; round < 200; ++round) {
    const std::uint64_t seed = rng.Next();
    const auto v = static_cast<NodeId>(rng.Next() >> (1 + rng.NextBelow(62)));
    for (std::int64_t col_lo = 0; col_lo < 9; ++col_lo) {
      for (std::int64_t col_hi = col_lo; col_hi <= col_lo + 40; ++col_hi) {
        const auto width = static_cast<std::size_t>(col_hi - col_lo);
        std::vector<float> want(width + 1, 9.0f), got(width + 1, 9.0f);
        procedural::RowScalar(seed, v, col_lo, col_hi, want.data());
        procedural::RowV4(seed, v, col_lo, col_hi, got.data());
        for (std::size_t c = 0; c <= width; ++c) {
          ASSERT_EQ(std::bit_cast<std::uint32_t>(got[c]), std::bit_cast<std::uint32_t>(want[c]))
              << "column " << col_lo + static_cast<std::int64_t>(c) << " of [" << col_lo
              << ", " << col_hi << ") node " << v;
        }
      }
    }
  }
}

#else

TEST(VectorKernelTest, VectorKernelsCompiledOut) {
  GTEST_SKIP() << "vector kernels compiled out (sanitizer or non-GCC build)";
}

#endif

}  // namespace
}  // namespace apt
