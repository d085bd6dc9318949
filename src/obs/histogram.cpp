#include "obs/histogram.h"

#include <cmath>
#include <cstring>

namespace apt::obs {

namespace {

/// Fixed-point encoding of a value (round-to-nearest nanounits). Saturates
/// instead of overflowing for absurd inputs so the arithmetic stays defined.
std::int64_t ToFixedPoint(double v) {
  const double scaled = v * Histogram::kFixedPointScale;
  if (scaled >= 9.2e18) return INT64_MAX;
  if (scaled <= -9.2e18) return INT64_MIN;
  return std::llround(scaled);
}

void AtomicMin(std::atomic<std::int64_t>& slot, std::int64_t v) {
  std::int64_t cur = slot.load(std::memory_order_relaxed);
  while (v < cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<std::int64_t>& slot, std::int64_t v) {
  std::int64_t cur = slot.load(std::memory_order_relaxed);
  while (v > cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

int Histogram::BucketIndexOf(double v) {
  // Everything below the range — zero, negatives, denormals-below-2^kMinExp,
  // and NaN (every comparison with NaN is false) — is underflow.
  if (!(v >= std::ldexp(1.0, kMinExp))) return 0;
  if (v >= std::ldexp(1.0, kMaxExp)) return kNumBuckets - 1;
  // v is a positive normal double in range: the biased exponent and the top
  // kSubBucketBits mantissa bits identify the log bucket exactly.
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  const int exp = static_cast<int>((bits >> 52) & 0x7ff) - 1023;
  const int sub = static_cast<int>((bits >> (52 - kSubBucketBits)) &
                                   (kSubBuckets - 1));
  return 1 + (exp - kMinExp) * kSubBuckets + sub;
}

double Histogram::BucketLowerBound(int index) {
  if (index <= 0) return 0.0;
  if (index >= kNumBuckets - 1) return std::ldexp(1.0, kMaxExp);
  const int exp = kMinExp + (index - 1) / kSubBuckets;
  const int sub = (index - 1) % kSubBuckets;
  return std::ldexp(1.0 + static_cast<double>(sub) / kSubBuckets, exp);
}

double Histogram::BucketUpperBound(int index) {
  if (index <= 0) return std::ldexp(1.0, kMinExp);
  if (index >= kNumBuckets - 1) return HUGE_VAL;
  const int exp = kMinExp + (index - 1) / kSubBuckets;
  const int sub = (index - 1) % kSubBuckets;
  if (sub == kSubBuckets - 1) return std::ldexp(1.0, exp + 1);
  return std::ldexp(1.0 + static_cast<double>(sub + 1) / kSubBuckets, exp);
}

void Histogram::Record(double v) {
  buckets_[static_cast<std::size_t>(BucketIndexOf(v))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  const std::int64_t fp = ToFixedPoint(v);
  sum_fp_.fetch_add(fp, std::memory_order_relaxed);
  AtomicMin(min_fp_, fp);
  AtomicMax(max_fp_, fp);
}

void Histogram::Merge(const Histogram& other) {
  for (int i = 0; i < kNumBuckets; ++i) {
    const std::int64_t n = other.buckets_[static_cast<std::size_t>(i)].load(
        std::memory_order_relaxed);
    if (n != 0) {
      buckets_[static_cast<std::size_t>(i)].fetch_add(n,
                                                      std::memory_order_relaxed);
    }
  }
  count_.fetch_add(other.count_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  sum_fp_.fetch_add(other.sum_fp_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
  const std::int64_t omin = other.min_fp_.load(std::memory_order_relaxed);
  if (omin != kEmptyMin) AtomicMin(min_fp_, omin);
  const std::int64_t omax = other.max_fp_.load(std::memory_order_relaxed);
  if (omax != kEmptyMax) AtomicMax(max_fp_, omax);
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_fp_.store(0, std::memory_order_relaxed);
  min_fp_.store(kEmptyMin, std::memory_order_relaxed);
  max_fp_.store(kEmptyMax, std::memory_order_relaxed);
}

double Histogram::Mean() const {
  const std::int64_t n = Count();
  return n > 0 ? Sum() / static_cast<double>(n) : 0.0;
}

double Histogram::Min() const {
  const std::int64_t fp = min_fp_.load(std::memory_order_relaxed);
  return fp == kEmptyMin ? 0.0
                         : static_cast<double>(fp) / kFixedPointScale;
}

double Histogram::Max() const {
  const std::int64_t fp = max_fp_.load(std::memory_order_relaxed);
  return fp == kEmptyMax ? 0.0
                         : static_cast<double>(fp) / kFixedPointScale;
}

double Histogram::ValueAtQuantile(double q) const {
  const std::int64_t n = Count();
  if (n <= 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Nearest rank: the ceil(q*n)-th smallest value (1-based), matching the
  // sorted-vector percentile the serving report and trace analyzer use.
  std::int64_t rank = static_cast<std::int64_t>(
      std::ceil(q * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  std::int64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += BucketCount(i);
    if (seen >= rank) {
      // The overflow bucket has no finite upper bound; report the exact max.
      if (i == kNumBuckets - 1) return Max();
      return BucketUpperBound(i);
    }
  }
  return Max();
}

}  // namespace apt::obs
