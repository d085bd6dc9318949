// Serving SLO tests: the online serve.latency_s histogram agrees with the
// exact trace-analysis percentiles to within one log-bucket width, and the
// engine's SLO watchdog tightens admission control under a sustained latency
// breach — deterministically.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/analysis.h"
#include "obs/export.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "serve/serve_engine.h"
#include "serve/traffic.h"
#include "test_util.h"

namespace apt::serve {
namespace {

using apt::testing::SmallDataset;
using obs::Histogram;

ModelConfig ServingModel(const Dataset& ds) {
  ModelConfig m;
  m.kind = ModelKind::kSage;
  m.num_layers = 2;
  m.input_dim = ds.feature_dim();
  m.hidden_dim = 16;
  m.num_classes = ds.num_classes;
  return m;
}

ServeOptions BaseOptions() {
  ServeOptions o;
  o.fanouts = {3, 3};
  o.batch.max_batch = 16;
  o.batch.max_delay_s = 5e-4;
  o.batch.queue_bound = 256;
  o.collect_logits = false;
  o.telemetry_window_s = 1e-3;
  return o;
}

TrafficConfig Load(const Dataset& ds, double qps) {
  TrafficConfig t;
  t.rate_qps = qps;
  t.duration_s = 0.01;
  t.num_nodes = ds.graph.num_nodes();
  t.seed = 41;
  return t;
}

TEST(ServeSlo, OnlineHistogramMatchesTraceAnalysisWithinOneBucket) {
  // The online histogram is bucketed; the trace analyzer computes exact
  // percentiles over the same "request" spans. Nearest-rank over bucket
  // UPPER bounds must bracket the exact value from above by at most the
  // bucket's width (~12.5%).
  obs::Metrics::ResetForTest();
  obs::SetTracingEnabled(true);
  obs::Tracer::Global().Clear();
  const Dataset ds = SmallDataset();
  ServeEngine engine(ds, SingleMachineCluster(4), ServingModel(ds),
                     BaseOptions());
  const ServeReport report =
      engine.Run(GenerateTraffic(Load(ds, 100e3)));
  ASSERT_GT(report.served, 100);
  ASSERT_EQ(report.shed, 0);  // same multiset on both sides

  const std::string path = ::testing::TempDir() + "serve_slo_trace.json";
  ASSERT_TRUE(obs::ExportChromeTrace(path));
  obs::SetTracingEnabled(false);
  obs::Tracer::Global().Clear();
  obs::TraceSet set;
  std::string error;
  ASSERT_TRUE(obs::AnalyzeTraceFile(path, &set, &error)) << error;
  const obs::TraceAnalysis* track = nullptr;
  for (const obs::TraceAnalysis& a : set.tracks) {
    if (a.serve.Any()) track = &a;
  }
  ASSERT_NE(track, nullptr);
  ASSERT_EQ(track->serve.latency.count, report.served);

  const Histogram& hist = obs::Metrics::Global().histogram("serve.latency_s");
  ASSERT_EQ(hist.Count(), report.served);
  const struct {
    double q;
    double exact;
  } checks[] = {{0.50, track->serve.latency.p50_s},
                {0.95, track->serve.latency.p95_s},
                {0.99, track->serve.latency.p99_s}};
  for (const auto& c : checks) {
    const double online = hist.ValueAtQuantile(c.q);
    EXPECT_GE(online, c.exact) << "q=" << c.q;
    EXPECT_LE(online - c.exact,
              Histogram::BucketWidth(Histogram::BucketIndexOf(c.exact)) * 1.0001)
        << "q=" << c.q << " online=" << online << " exact=" << c.exact;
  }
  // The engine's report percentiles come from the same exact latencies.
  EXPECT_DOUBLE_EQ(track->serve.latency.p99_s, report.p99_s);
}

TEST(ServeSlo, WatchdogTightensQueueBoundDeterministically) {
  // An unmeetable latency SLO: every closed window violates, so the
  // watchdog halves queue_bound at each wave-boundary evaluation until the
  // floor. Both the tightening and the resulting report must be
  // bit-reproducible across runs.
  const Dataset ds = SmallDataset();
  ServeOptions opts = BaseOptions();
  obs::SloRule rule;
  ASSERT_TRUE(obs::ParseSloRule("serve.latency_s p99 < 1us", &rule));
  opts.slo_rules = {rule};
  const std::vector<Request> arrivals = GenerateTraffic(Load(ds, 200e3));

  const auto run_once = [&]() {
    obs::Metrics::ResetForTest();
    ServeEngine engine(ds, SingleMachineCluster(4), ServingModel(ds), opts);
    return engine.Run(arrivals);
  };

  const ServeReport r1 = run_once();
  const std::int64_t tightened1 =
      obs::Metrics::Global().counter("serve.slo.queue_bound_tightened").Get();
  const double bound1 = obs::Metrics::Global().gauge("serve.queue_bound").Get();
  EXPECT_GE(obs::Metrics::Global().counter("slo.violations").Get(), 1);
  EXPECT_GE(tightened1, 1);
  EXPECT_GE(bound1, static_cast<double>(kSloQueueBoundFloor));
  EXPECT_LT(bound1, static_cast<double>(opts.batch.queue_bound));

  const ServeReport r2 = run_once();
  const std::int64_t tightened2 =
      obs::Metrics::Global().counter("serve.slo.queue_bound_tightened").Get();
  EXPECT_EQ(tightened1, tightened2);
  EXPECT_EQ(r1.served, r2.served);
  EXPECT_EQ(r1.shed, r2.shed);
  EXPECT_EQ(r1.batches, r2.batches);
  EXPECT_DOUBLE_EQ(r1.p99_s, r2.p99_s);
  EXPECT_DOUBLE_EQ(r1.mean_latency_s, r2.mean_latency_s);
}

TEST(ServeSlo, NoRulesMeansNoBehaviorChange) {
  // The watchdog is opt-in: with no rules, a run with telemetry on and a
  // run with telemetry off produce identical reports.
  const Dataset ds = SmallDataset();
  const std::vector<Request> arrivals = GenerateTraffic(Load(ds, 200e3));
  const auto run_with_window = [&](double window_s) {
    obs::Metrics::ResetForTest();
    ServeOptions opts = BaseOptions();
    opts.telemetry_window_s = window_s;
    ServeEngine engine(ds, SingleMachineCluster(4), ServingModel(ds), opts);
    return engine.Run(arrivals);
  };
  const ServeReport on = run_with_window(1e-3);
  const ServeReport off = run_with_window(0.0);
  EXPECT_EQ(on.served, off.served);
  EXPECT_EQ(on.shed, off.shed);
  EXPECT_DOUBLE_EQ(on.p99_s, off.p99_s);
  EXPECT_DOUBLE_EQ(on.completed_qps, off.completed_qps);
  // The telemetry-off run recorded nothing.
  const obs::TimeSeries* lat = obs::Telemetry::Global().Find("serve.latency_s");
  ASSERT_NE(lat, nullptr);  // created by the telemetry-on run...
  EXPECT_TRUE(lat->AllWindows().empty());  // ...but reset + off-run left it empty
}

}  // namespace
}  // namespace apt::serve
