// apt::obs metrics: a process-global registry of named counters and gauges,
// dumpable as JSON or aligned text.
//
// Counters are cumulative monotone int64 totals (rows gathered, bytes
// shuffled); gauges are last-write-wins doubles (cache hit rate, cost-model
// residual). Both are lock-free atomics once obtained; name lookup takes the
// registry mutex, so hot paths resolve their handles once and keep the
// reference (handles are stable for the process lifetime).
//
// Metric naming scheme: dot-separated "<subsystem>.<object>.<unit>" —
// e.g. feature.rows.gpu_cache, sim.traffic.cross_machine.bytes,
// costmodel.residual_rel. See DESIGN.md "Observability".
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.h"

namespace apt::obs {

class Counter {
 public:
  void Add(std::int64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  std::int64_t Get() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  double Get() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> v_{0.0};
};

class Metrics {
 public:
  /// Process-wide registry (leaked singleton).
  static Metrics& Global();

  /// Returns the counter/gauge/histogram named `name`, creating it on first
  /// use. The returned reference stays valid for the process lifetime.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Streaming distribution metric (obs/histogram.h): quantiles available
  /// in-process without trace analysis, e.g. serve.latency_s.
  Histogram& histogram(const std::string& name);

  /// Zeroes every registered metric (names stay registered).
  void ResetAll();

  /// Test-fixture hook: zeroes the global registry — counters, gauges,
  /// histograms, AND the telemetry time-series registry — so assertions are
  /// absolute instead of delta-based, making suites order-independent (the
  /// registries are process-global, so tests otherwise observe each other's
  /// increments). Greppable name: production code must never call it.
  static void ResetForTest();

  /// Sorted snapshots (copy; safe against concurrent updates).
  std::vector<std::pair<std::string, std::int64_t>> CounterSnapshot() const;
  std::vector<std::pair<std::string, double>> GaugeSnapshot() const;
  /// Name-sorted histogram refs (pointers stable; contents live).
  std::vector<std::pair<std::string, const Histogram*>> HistogramRefs() const;

  /// {"schema_version": ..., "meta": {...}, "counters": {...}, "gauges": ...}
  void WriteJson(std::ostream& os) const;
  std::string ToJson() const;
  /// Writes the JSON dump to `path`; returns false on IO failure.
  bool WriteJsonFile(const std::string& path) const;

 private:
  Metrics() = default;

  mutable std::mutex mu_;  ///< guards the maps (not the atomics)
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace apt::obs
