#include "obs/metrics.h"

#include <fstream>
#include <sstream>

#include "obs/json.h"
#include "obs/telemetry.h"

namespace apt::obs {

Metrics& Metrics::Global() {
  static Metrics* metrics = new Metrics();  // leaked; see Tracer::Global
  return *metrics;
}

Counter& Metrics::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Metrics::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Metrics::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

void Metrics::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

void Metrics::ResetForTest() {
  Global().ResetAll();
  Telemetry::Global().ResetAll();
}

std::vector<std::pair<std::string, std::int64_t>> Metrics::CounterSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::int64_t>> out;
  out.reserve(counters_.size());
  for (const auto& [name, c] : counters_) out.emplace_back(name, c->Get());
  return out;
}

std::vector<std::pair<std::string, double>> Metrics::GaugeSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, double>> out;
  out.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) out.emplace_back(name, g->Get());
  return out;
}

std::vector<std::pair<std::string, const Histogram*>> Metrics::HistogramRefs()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, const Histogram*>> out;
  out.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) out.emplace_back(name, h.get());
  return out;
}

void Metrics::WriteJson(std::ostream& os) const {
  JsonWriter w(os);
  w.BeginObject();
  w.KV("schema_version", kObsSchemaVersion);
  w.Key("meta");
  w.BeginObject();
  w.KV("generator", "apt::obs");
  w.KV("kind", "metrics");
  w.EndObject();
  w.Key("counters");
  w.BeginObject();
  for (const auto& [name, value] : CounterSnapshot()) w.KV(name, value);
  w.EndObject();
  w.Key("gauges");
  w.BeginObject();
  for (const auto& [name, value] : GaugeSnapshot()) w.KV(name, value);
  w.EndObject();
  w.Key("histograms");
  w.BeginObject();
  for (const auto& [name, hist] : HistogramRefs()) {
    w.Key(name);
    w.BeginObject();
    w.KV("count", hist->Count());
    w.KV("sum", hist->Sum());
    w.KV("min", hist->Min());
    w.KV("max", hist->Max());
    w.KV("p50", hist->ValueAtQuantile(0.50));
    w.KV("p95", hist->ValueAtQuantile(0.95));
    w.KV("p99", hist->ValueAtQuantile(0.99));
    // Sparse bucket encoding: [index, count] pairs for non-empty buckets
    // (the fixed layout makes indices portable across processes).
    w.Key("buckets");
    w.BeginArray();
    for (int i = 0; i < Histogram::kNumBuckets; ++i) {
      const std::int64_t n = hist->BucketCount(i);
      if (n == 0) continue;
      w.BeginArray();
      w.Value(static_cast<std::int64_t>(i));
      w.Value(n);
      w.EndArray();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  os << "\n";
}

std::string Metrics::ToJson() const {
  std::ostringstream os;
  WriteJson(os);
  return os.str();
}

bool Metrics::WriteJsonFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  WriteJson(out);
  return static_cast<bool>(out);
}

}  // namespace apt::obs
