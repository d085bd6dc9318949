// Fixed-bucket log-scale streaming histogram: the distribution primitive
// behind the online telemetry layer (obs/telemetry.h) and the histogram
// metrics of obs/metrics.h.
//
// Design constraints, in order:
//   * bit-deterministic: the bucket index is computed from the IEEE-754 bit
//     pattern of the value (exponent + top mantissa bits), never through
//     log()/exp2(), and the running sum is accumulated in fixed point — so
//     the final state is identical regardless of the order (or the thread
//     schedule) in which values arrive;
//   * zero steady-state allocation: the bucket array is a fixed inline
//     std::array; Record() touches a handful of relaxed atomics and nothing
//     else;
//   * TSan-clean concurrent recording: every mutable field is a std::atomic
//     updated with commutative operations (fetch_add, CAS min/max), so
//     worker threads record into a shared histogram without locks;
//   * mergeable: Merge() adds another histogram bucket-by-bucket, and is
//     associative and commutative (tests pin this).
//
// Bucket layout: 8 sub-buckets per octave (top 3 mantissa bits), covering
// [2^-30, 2^14) ~ [1e-9 s, 16384 s] — the full range of simulated durations
// this codebase produces — with ~12.5% relative bucket width. Values below
// the range (zero, negatives, denormals, NaN) land in the underflow bucket;
// values at or above 2^14 land in the overflow bucket. Quantiles are
// reported as the UPPER bound of the nearest-rank bucket, so an online
// quantile is always >= the exact sample quantile and within one bucket
// width of it.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

namespace apt::obs {

class Histogram {
 public:
  static constexpr int kSubBucketBits = 3;  ///< 8 sub-buckets per octave
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr int kMinExp = -30;  ///< smallest bucketed octave, 2^-30
  static constexpr int kMaxExp = 14;   ///< first out-of-range octave, 2^14
  /// underflow + (kMaxExp - kMinExp) octaves * 8 + overflow.
  static constexpr int kNumBuckets = 2 + (kMaxExp - kMinExp) * kSubBuckets;
  /// Fixed-point scale for the running sum / min / max (nanounits): integer
  /// accumulation commutes exactly, which floating point would not.
  static constexpr double kFixedPointScale = 1e9;

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Records one value. Lock-free, allocation-free, safe from any thread.
  void Record(double v);

  /// Adds every bucket / the count / the sum of `other` into this histogram.
  /// Associative and commutative with Record and other Merges.
  void Merge(const Histogram& other);
  void Reset();

  std::int64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const {
    return static_cast<double>(sum_fp_.load(std::memory_order_relaxed)) /
           kFixedPointScale;
  }
  double Mean() const;
  /// Exact min/max of the recorded values at fixed-point resolution
  /// (not bucket bounds). 0 when empty.
  double Min() const;
  double Max() const;

  /// Nearest-rank quantile, reported as the upper bound of the bucket that
  /// holds the rank-ceil(q * count) value. q in [0, 1]; 0 when empty.
  double ValueAtQuantile(double q) const;

  std::int64_t BucketCount(int index) const {
    return buckets_[static_cast<std::size_t>(index)].load(
        std::memory_order_relaxed);
  }

  // --- bucket geometry (static: shared with tests and exporters) ----------
  /// Index of the bucket `v` records into. 0 = underflow,
  /// kNumBuckets-1 = overflow.
  static int BucketIndexOf(double v);
  /// Inclusive lower / exclusive upper value bound of bucket `index`.
  /// Underflow: [0, 2^kMinExp); overflow: [2^kMaxExp, +inf).
  static double BucketLowerBound(int index);
  static double BucketUpperBound(int index);
  static double BucketWidth(int index) {
    return BucketUpperBound(index) - BucketLowerBound(index);
  }

 private:
  std::array<std::atomic<std::int64_t>, kNumBuckets> buckets_{};
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_fp_{0};
  /// Fixed-point min/max maintained with CAS loops; sentinels when empty.
  std::atomic<std::int64_t> min_fp_{kEmptyMin};
  std::atomic<std::int64_t> max_fp_{kEmptyMax};

  static constexpr std::int64_t kEmptyMin = INT64_MAX;
  static constexpr std::int64_t kEmptyMax = INT64_MIN;
};

}  // namespace apt::obs
