#include "obs/telemetry.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "obs/json.h"
#include "obs/metrics.h"

namespace apt::obs {

namespace {

std::int64_t ToFixedPoint(double v) {
  const double scaled = v * Histogram::kFixedPointScale;
  if (scaled >= 9.2e18) return INT64_MAX;
  if (scaled <= -9.2e18) return INT64_MIN;
  return std::llround(scaled);
}

double FromFixedPoint(std::int64_t fp) {
  return static_cast<double>(fp) / Histogram::kFixedPointScale;
}

}  // namespace

TimeSeries::TimeSeries(std::string name, double window_s)
    : name_(std::move(name)), window_s_(window_s) {}

std::int64_t TimeSeries::WindowOf(double t_s) const {
  return static_cast<std::int64_t>(std::floor(t_s / window_s_));
}

void TimeSeries::Record(double t_s, double value) {
  const std::int64_t w = WindowOf(t_s);
  const std::int64_t fp = ToFixedPoint(value);
  std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = slots_[static_cast<std::size_t>(
      ((w % kRingWindows) + kRingWindows) % kRingWindows)];
  if (slot.window != w) {
    // The ring slot last held a window kRingWindows back (or nothing);
    // rotate it. With a monotone virtual clock this only drops windows
    // older than the retention horizon.
    slot.window = w;
    slot.count = 0;
    slot.sum_fp = 0;
    slot.min_fp = 0;
    slot.max_fp = 0;
    slot.hist.Reset();
  }
  if (slot.count == 0) {
    slot.min_fp = fp;
    slot.max_fp = fp;
  } else {
    slot.min_fp = std::min(slot.min_fp, fp);
    slot.max_fp = std::max(slot.max_fp, fp);
  }
  ++slot.count;
  slot.sum_fp += fp;
  slot.hist.Record(value);
}

WindowStats TimeSeries::SnapshotSlot(const Slot& slot) const {
  WindowStats w;
  w.window = slot.window;
  w.t0_s = static_cast<double>(slot.window) * window_s_;
  w.t1_s = static_cast<double>(slot.window + 1) * window_s_;
  w.count = slot.count;
  w.sum = FromFixedPoint(slot.sum_fp);
  w.min = FromFixedPoint(slot.min_fp);
  w.max = FromFixedPoint(slot.max_fp);
  w.p50 = slot.hist.ValueAtQuantile(0.50);
  w.p95 = slot.hist.ValueAtQuantile(0.95);
  w.p99 = slot.hist.ValueAtQuantile(0.99);
  return w;
}

std::vector<WindowStats> TimeSeries::ClosedWindows(double now_s) const {
  const std::int64_t cur = WindowOf(now_s);
  std::vector<WindowStats> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Slot& slot : slots_) {
      if (slot.window >= 0 && slot.window < cur && slot.count > 0) {
        out.push_back(SnapshotSlot(slot));
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const WindowStats& a, const WindowStats& b) {
              return a.window < b.window;
            });
  return out;
}

std::vector<WindowStats> TimeSeries::AllWindows() const {
  std::vector<WindowStats> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const Slot& slot : slots_) {
      if (slot.window >= 0 && slot.count > 0) out.push_back(SnapshotSlot(slot));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const WindowStats& a, const WindowStats& b) {
              return a.window < b.window;
            });
  return out;
}

void TimeSeries::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (Slot& slot : slots_) {
    slot.window = -1;
    slot.count = 0;
    slot.sum_fp = 0;
    slot.min_fp = 0;
    slot.max_fp = 0;
    slot.hist.Reset();
  }
}

Telemetry& Telemetry::Global() {
  static Telemetry* telemetry = new Telemetry();  // leaked; see Tracer::Global
  return *telemetry;
}

TimeSeries& Telemetry::series(const std::string& name, double window_s) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = series_[name];
  if (!slot || slot->window_s() != window_s) {
    slot = std::make_unique<TimeSeries>(name, window_s);
  }
  return *slot;
}

TimeSeries* Telemetry::Find(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = series_.find(name);
  return it == series_.end() ? nullptr : it->second.get();
}

std::vector<TimeSeries*> Telemetry::AllSeries() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TimeSeries*> out;
  out.reserve(series_.size());
  for (const auto& [name, ts] : series_) out.push_back(ts.get());
  return out;
}

void Telemetry::ResetAll() {
  for (TimeSeries* ts : AllSeries()) ts->Reset();
}

void Telemetry::WriteTimelineJsonl(std::ostream& os) const {
  {
    JsonWriter w(os);
    w.BeginObject();
    w.KV("schema_version", kObsSchemaVersion);
    w.Key("meta");
    w.BeginObject();
    w.KV("generator", "apt::obs");
    w.KV("kind", "telemetry");
    w.EndObject();
    w.EndObject();
  }
  os << "\n";
  for (const TimeSeries* ts : AllSeries()) {
    for (const WindowStats& win : ts->AllWindows()) {
      JsonWriter w(os);
      w.BeginObject();
      w.KV("series", ts->name());
      w.KV("window", win.window);
      w.KV("t0_s", win.t0_s);
      w.KV("t1_s", win.t1_s);
      w.KV("count", win.count);
      w.KV("sum", win.sum);
      w.KV("min", win.min);
      w.KV("max", win.max);
      w.KV("mean", win.Mean());
      w.KV("p50", win.p50);
      w.KV("p95", win.p95);
      w.KV("p99", win.p99);
      w.EndObject();
      os << "\n";
    }
  }
}

bool Telemetry::WriteTimelineFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  WriteTimelineJsonl(out);
  return static_cast<bool>(out);
}

namespace {

std::string PromName(const std::string& name) {
  std::string out = "apt_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

void WritePrometheusText(std::ostream& os) {
  const Metrics& metrics = Metrics::Global();
  for (const auto& [name, value] : metrics.CounterSnapshot()) {
    const std::string prom = PromName(name);
    os << "# TYPE " << prom << " counter\n" << prom << " " << value << "\n";
  }
  for (const auto& [name, value] : metrics.GaugeSnapshot()) {
    const std::string prom = PromName(name);
    os << "# TYPE " << prom << " gauge\n" << prom << " " << value << "\n";
  }
  for (const auto& [name, hist] : metrics.HistogramRefs()) {
    const std::string prom = PromName(name);
    os << "# TYPE " << prom << " histogram\n";
    std::int64_t cumulative = 0;
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      const std::int64_t n = hist->BucketCount(i);
      if (n == 0) continue;  // cumulative count unchanged: line elided
      cumulative += n;
      if (i == Histogram::kNumBuckets - 1) break;  // +Inf line below
      os << prom << "_bucket{le=\"" << Histogram::BucketUpperBound(i) << "\"} "
         << cumulative << "\n";
    }
    os << prom << "_bucket{le=\"+Inf\"} " << hist->Count() << "\n";
    os << prom << "_sum " << hist->Sum() << "\n";
    os << prom << "_count " << hist->Count() << "\n";
  }
  for (const TimeSeries* ts : Telemetry::Global().AllSeries()) {
    const std::vector<WindowStats> windows = ts->AllWindows();
    if (windows.empty()) continue;
    const WindowStats& last = windows.back();
    const std::string prom = PromName("series." + ts->name());
    os << "# TYPE " << prom << " gauge\n";
    const auto stat = [&](const char* key, double v) {
      os << prom << "{stat=\"" << key << "\",window=\"" << last.window
         << "\"} " << v << "\n";
    };
    stat("count", static_cast<double>(last.count));
    stat("mean", last.Mean());
    stat("min", last.min);
    stat("max", last.max);
    stat("p50", last.p50);
    stat("p95", last.p95);
    stat("p99", last.p99);
  }
}

}  // namespace apt::obs
