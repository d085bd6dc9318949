// Tests for core utilities: errors, rng, types, timers.
#include <gtest/gtest.h>

#include <set>

#include "core/error.h"
#include "core/random.h"
#include "core/timer.h"
#include "core/types.h"

namespace apt {
namespace {

TEST(ErrorTest, CheckPassesOnTrue) { APT_CHECK(1 + 1 == 2) << "never shown"; }

TEST(ErrorTest, CheckThrowsWithMessage) {
  try {
    APT_CHECK(false) << "context " << 42;
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("CHECK failed"), std::string::npos);
  }
}

TEST(ErrorTest, ComparisonMacros) {
  EXPECT_THROW(APT_CHECK_EQ(1, 2), Error);
  EXPECT_THROW(APT_CHECK_LT(2, 1), Error);
  EXPECT_THROW(APT_CHECK_GE(1, 2), Error);
  APT_CHECK_LE(2, 2);
  APT_CHECK_NE(1, 2);
  APT_CHECK_GT(3, 2);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 2);
}

TEST(RngTest, ForkIndependence) {
  Rng base(77);
  Rng s1 = base.Fork(1);
  Rng s2 = base.Fork(2);
  EXPECT_NE(s1.Next(), s2.Next());
  // Forking is a const operation on the parent state.
  Rng s1_again = base.Fork(1);
  Rng s1_ref = base.Fork(1);
  EXPECT_EQ(s1_again.Next(), s1_ref.Next());
}

// Rng::Skipped(n) is the generator after n calls of Next(): the jump that
// lets a chunked parallel loop start each chunk at its serial draws.
TEST(RngTest, SkippedEqualsRepeatedNext) {
  for (const std::uint64_t n : {0ULL, 1ULL, 1000000ULL}) {
    Rng stepped(0x5eed);
    for (std::uint64_t i = 0; i < n; ++i) stepped.Next();
    Rng skipped = Rng(0x5eed).Skipped(n);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(skipped.Next(), stepped.Next()) << "n = " << n;
  }
}

TEST(RngTest, SkippedWrapsLikeTheState) {
  // 2^64 - 1 skipped draws plus one more wraps the state back to the start.
  Rng start(0x5eed);
  Rng wrapped = start.Skipped(~0ULL);
  wrapped.Next();
  Rng ref = start;
  EXPECT_EQ(wrapped.Next(), ref.Next());
  // Jumps compose modulo 2^64.
  const std::uint64_t big = 0xfedcba9876543210ULL;
  Rng two_jumps = start.Skipped(big).Skipped(big);
  Rng one_jump = start.Skipped(big + big);
  EXPECT_EQ(two_jumps.Next(), one_jump.Next());
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.NextBelow(7);
    EXPECT_LT(v, 7u);
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.NextGaussian();
    sum += v;
    sq += v * v;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(13);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng.Shuffle(v);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 10u);
}

TEST(StrategyTest, RoundTripNames) {
  for (Strategy s : kAllStrategies) {
    EXPECT_EQ(StrategyFromString(ToString(s)), s);
  }
  EXPECT_EQ(StrategyFromString("gdp"), Strategy::kGDP);
  EXPECT_EQ(StrategyFromString("dnp"), Strategy::kDNP);
  EXPECT_THROW(StrategyFromString("bogus"), Error);
}

TEST(WallTimerTest, MeasuresNonNegative) {
  WallTimer t;
  EXPECT_GE(t.Seconds(), 0.0);
  t.Reset();
  EXPECT_GE(t.Seconds(), 0.0);
}

}  // namespace
}  // namespace apt
