// Online telemetry: windowed time-series keyed on the VIRTUAL clock.
//
// A TimeSeries partitions simulated time into fixed windows of `window_s`
// and keeps, per window, count / sum / min / max plus a full log-scale
// streaming histogram (obs/histogram.h), in a fixed ring of the most recent
// kRingWindows windows. Record(t_s, v) is the hot path: one uncontended
// mutex, integer accumulation, zero steady-state allocation.
//
// Determinism invariant (the telemetry twin of strategy equivalence): window
// membership is a pure function of the SIMULATED timestamp, and every
// accumulation commutes (fixed-point sums, bucket counts, integer min/max) —
// so a snapshot taken at a deterministic point is bit-identical regardless
// of the thread schedule that produced the records. The corollary callers
// must respect: windows are never "closed" by Record itself; closure is a
// property of the observation time (`ClosedWindows(now_s)` — every window
// strictly before now's window), evaluated from single-threaded points
// (trainer epoch boundaries, the serving dispatch loop after a wave join).
//
// The registry (Telemetry::Global()) mirrors obs/metrics.h: name lookup
// takes a mutex, the returned reference is stable for the process lifetime,
// and Metrics::ResetForTest also resets every series here.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "obs/histogram.h"

namespace apt::obs {

/// Snapshot of one window of one series (derived stats precomputed, so
/// exporters and the SLO watchdog share one representation with the
/// `aptperf slo` offline path).
struct WindowStats {
  std::int64_t window = 0;  ///< floor(t / window_s)
  double t0_s = 0.0;        ///< window * window_s
  double t1_s = 0.0;        ///< (window + 1) * window_s
  std::int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;  ///< histogram nearest-rank bucket upper bounds
  double p95 = 0.0;
  double p99 = 0.0;

  double Mean() const {
    return count > 0 ? sum / static_cast<double>(count) : 0.0;
  }
};

class TimeSeries {
 public:
  /// Windows retained; older ones are overwritten as time advances.
  static constexpr int kRingWindows = 32;

  TimeSeries(std::string name, double window_s);

  /// Records `value` at simulated time `t_s`. Thread-safe; allocation-free.
  void Record(double t_s, double value);

  /// Retained windows whose end is at or before now_s's window start —
  /// i.e. every window that can no longer receive records from a
  /// monotonically advancing clock. Ascending window order.
  std::vector<WindowStats> ClosedWindows(double now_s) const;
  /// Every retained non-empty window (open one included), ascending.
  std::vector<WindowStats> AllWindows() const;

  const std::string& name() const { return name_; }
  double window_s() const { return window_s_; }
  /// Index of the window containing `t_s`.
  std::int64_t WindowOf(double t_s) const;

  void Reset();

 private:
  struct Slot {
    std::int64_t window = -1;  ///< -1: never used
    std::int64_t count = 0;
    std::int64_t sum_fp = 0;
    std::int64_t min_fp = 0;
    std::int64_t max_fp = 0;
    Histogram hist;
  };

  WindowStats SnapshotSlot(const Slot& slot) const;

  const std::string name_;
  const double window_s_;
  mutable std::mutex mu_;
  std::array<Slot, kRingWindows> slots_;
};

class Telemetry {
 public:
  /// Process-wide registry (leaked singleton, like Metrics/Tracer).
  static Telemetry& Global();

  /// Returns the series named `name`, creating it with `window_s` on first
  /// use. The reference is stable for the process lifetime. Re-requesting an
  /// existing series with a DIFFERENT window reconfigures it: the series is
  /// rebuilt (and cleared) at the new width, so tests with different window
  /// geometries coexist against the process-global registry.
  TimeSeries& series(const std::string& name, double window_s);
  /// Lookup without creation; nullptr when absent.
  TimeSeries* Find(const std::string& name);

  /// All registered series, name order (pointers stable).
  std::vector<TimeSeries*> AllSeries() const;

  /// Clears every series' windows (registrations stay).
  void ResetAll();

  /// Windowed timeline JSONL: a schema header line, then one JSON object
  /// per retained series-window (series/window/t0_s/t1_s/count/sum/min/max/
  /// mean/p50/p95/p99), ascending by series name then window.
  void WriteTimelineJsonl(std::ostream& os) const;
  bool WriteTimelineFile(const std::string& path) const;

 private:
  Telemetry() = default;

  mutable std::mutex mu_;  ///< guards the map, not the series
  std::map<std::string, std::unique_ptr<TimeSeries>> series_;
};

/// Prometheus-style text snapshot of the whole observability state: every
/// Metrics counter/gauge/histogram plus, per telemetry series, the most
/// recent closed window's stats. Metric names are sanitized (dots ->
/// underscores, "apt_" prefix); histograms render cumulative buckets.
void WritePrometheusText(std::ostream& os);

}  // namespace apt::obs
