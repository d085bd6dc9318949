// Unit coverage for the serving subsystem: traffic generation, the
// micro-batcher's close/shed rules, engine end-to-end behaviour, and the
// trace analyzer's Serving section.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "obs/analysis.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/batcher.h"
#include "serve/serve_engine.h"
#include "serve/traffic.h"
#include "test_util.h"

namespace apt::serve {
namespace {

using apt::testing::SmallDataset;

ModelConfig SmallModel() {
  ModelConfig m;
  m.kind = ModelKind::kSage;
  m.num_layers = 2;
  m.hidden_dim = 8;
  return m;  // input_dim/num_classes filled from the dataset by the engine
}

ServeOptions SmallOptions() {
  ServeOptions o;
  o.fanouts = {4, 4};
  o.batch.max_batch = 16;
  o.batch.max_delay_s = 2e-4;
  o.batch.queue_bound = 256;
  o.cache_bytes_per_device = 1 << 18;
  return o;
}

TrafficConfig SmallTraffic(NodeId num_nodes, double qps, double duration_s) {
  TrafficConfig t;
  t.rate_qps = qps;
  t.duration_s = duration_s;
  t.num_nodes = num_nodes;
  t.seed = 11;
  return t;
}

// --- traffic ---------------------------------------------------------------

TEST(Traffic, PoissonIsDeterministicSortedAndBounded) {
  const TrafficConfig config = SmallTraffic(1000, 5000.0, 0.1);
  const std::vector<Request> a = GenerateTraffic(config);
  const std::vector<Request> b = GenerateTraffic(config);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, static_cast<RequestId>(i));
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);
    EXPECT_GE(a[i].arrival_s, 0.0);
    EXPECT_LT(a[i].arrival_s, config.duration_s);
    if (i > 0) EXPECT_GE(a[i].arrival_s, a[i - 1].arrival_s);
    EXPECT_GE(a[i].seed, 0);
    EXPECT_LT(a[i].seed, config.num_nodes);
  }
  // Mean rate lands near the configured load.
  EXPECT_GT(static_cast<double>(a.size()), 0.6 * config.rate_qps * config.duration_s);
  EXPECT_LT(static_cast<double>(a.size()), 1.5 * config.rate_qps * config.duration_s);
}

TEST(Traffic, BurstyArrivalsStayInsideOnWindows) {
  TrafficConfig config = SmallTraffic(1000, 5000.0, 0.1);
  config.kind = ArrivalKind::kBursty;
  config.burst_period_s = 0.01;
  config.burst_duty = 0.2;
  const std::vector<Request> reqs = GenerateTraffic(config);
  ASSERT_FALSE(reqs.empty());
  const double on_s = config.burst_period_s * config.burst_duty;
  for (const Request& r : reqs) {
    EXPECT_LT(std::fmod(r.arrival_s, config.burst_period_s), on_s);
  }
  // Same mean rate as Poisson, within tolerance.
  EXPECT_GT(static_cast<double>(reqs.size()),
            0.5 * config.rate_qps * config.duration_s);
}

TEST(Traffic, ZipfPopularityIsHeadHeavy) {
  TrafficConfig config = SmallTraffic(10000, 20000.0, 0.1);
  config.zipf_alpha = 1.0;
  const std::vector<Request> reqs = GenerateTraffic(config);
  std::int64_t head = 0;
  for (const Request& r : reqs) {
    if (r.seed < config.num_nodes / 100) ++head;  // hottest 1% of ranks
  }
  // Under uniform popularity the head would get ~1% of requests; the Zipf
  // head must get far more.
  EXPECT_GT(static_cast<double>(head), 0.1 * static_cast<double>(reqs.size()));
}

// --- batcher ---------------------------------------------------------------

std::vector<Request> ArrivalsAt(const std::vector<double>& times) {
  std::vector<Request> out;
  for (std::size_t i = 0; i < times.size(); ++i) {
    out.push_back({static_cast<RequestId>(i), static_cast<NodeId>(i), times[i]});
  }
  return out;
}

TEST(Batcher, ClosesOnSize) {
  std::vector<double> times;
  for (int i = 0; i < 70; ++i) times.push_back(1e-6 * i);
  BatchPolicy policy;
  policy.max_batch = 32;
  policy.max_delay_s = 1.0;  // deadline never fires
  const BatchPlan plan = PlanBatches(ArrivalsAt(times), policy);
  ASSERT_EQ(plan.batches.size(), 3u);
  EXPECT_EQ(plan.batches[0].requests.size(), 32u);
  EXPECT_EQ(plan.batches[1].requests.size(), 32u);
  EXPECT_EQ(plan.batches[2].requests.size(), 6u);
  EXPECT_TRUE(plan.shed.empty());
  // A size-closed batch is ready when its last request arrives.
  EXPECT_DOUBLE_EQ(plan.batches[0].close_s, times[31]);
  // The final deadline-closed batch waits out the oldest request's budget.
  EXPECT_DOUBLE_EQ(plan.batches[2].close_s, times[64] + policy.max_delay_s);
}

TEST(Batcher, ClosesOnDeadline) {
  BatchPolicy policy;
  policy.max_batch = 32;
  policy.max_delay_s = 1e-3;
  const BatchPlan plan =
      PlanBatches(ArrivalsAt({0.0, 1e-4, 2e-4, 5e-3}), policy);
  ASSERT_EQ(plan.batches.size(), 2u);
  EXPECT_EQ(plan.batches[0].requests.size(), 3u);
  EXPECT_DOUBLE_EQ(plan.batches[0].close_s, 1e-3);
  EXPECT_EQ(plan.batches[1].requests.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.batches[1].close_s, 5e-3 + 1e-3);
}

TEST(Batcher, CloseTimesAreMonotone) {
  TrafficConfig config;
  config.rate_qps = 20000.0;
  config.duration_s = 0.05;
  config.num_nodes = 100;
  const std::vector<Request> reqs = GenerateTraffic(config);
  BatchPolicy policy;
  policy.max_batch = 8;
  policy.max_delay_s = 1e-4;
  const BatchPlan plan = PlanBatches(reqs, policy);
  ASSERT_GT(plan.batches.size(), 1u);
  std::size_t total = plan.shed.size();
  for (std::size_t i = 0; i < plan.batches.size(); ++i) {
    total += plan.batches[i].requests.size();
    EXPECT_LE(plan.batches[i].requests.size(),
              static_cast<std::size_t>(policy.max_batch));
    if (i > 0) EXPECT_GE(plan.batches[i].close_s, plan.batches[i - 1].close_s);
  }
  EXPECT_EQ(total, reqs.size());  // every request lands somewhere
}

TEST(Batcher, ShedsOnDispatchBacklog) {
  // 100 arrivals in a burst; workers report start times far in the future,
  // so the closed-but-unstarted backlog crosses the bound and admission
  // sheds the overflow.
  std::vector<double> times;
  for (int i = 0; i < 100; ++i) times.push_back(1e-6 * i);
  BatchPolicy policy;
  policy.max_batch = 8;
  policy.max_delay_s = 1e-3;
  policy.queue_bound = 32;
  const DispatchFn slow_workers = [](const PlannedBatch& b) {
    return b.close_s + 1.0;  // nothing starts within the burst
  };
  const BatchPlan plan = PlanBatches(ArrivalsAt(times), policy, slow_workers);
  EXPECT_FALSE(plan.shed.empty());
  std::size_t admitted = 0;
  for (const PlannedBatch& b : plan.batches) admitted += b.requests.size();
  // Backlog never exceeds bound + one open batch.
  EXPECT_LE(admitted, static_cast<std::size_t>(policy.queue_bound +
                                               policy.max_batch));
  EXPECT_EQ(admitted + plan.shed.size(), times.size());
}

TEST(Batcher, NoShedWithoutDispatchFeedback) {
  // Without a dispatch callback every batch starts at close: zero backlog,
  // nothing shed, however tight the bound.
  std::vector<double> times;
  for (int i = 0; i < 500; ++i) times.push_back(1e-7 * i);
  BatchPolicy policy;
  policy.max_batch = 4;
  policy.max_delay_s = 1e-3;
  policy.queue_bound = 8;
  const BatchPlan plan = PlanBatches(ArrivalsAt(times), policy);
  EXPECT_TRUE(plan.shed.empty());
}

// --- engine ----------------------------------------------------------------

TEST(ServeEngine, ServesEveryRequestAndReportsConsistently) {
  const Dataset ds = SmallDataset(16, 1200);
  ServeEngine engine(ds, SingleMachineCluster(2), SmallModel(), SmallOptions());
  const std::vector<Request> reqs =
      GenerateTraffic(SmallTraffic(ds.graph.num_nodes(), 5000.0, 0.02));
  const ServeReport report = engine.Run(reqs);

  EXPECT_EQ(report.offered, static_cast<std::int64_t>(reqs.size()));
  EXPECT_EQ(report.served + report.shed, report.offered);
  EXPECT_EQ(report.shed, report.shed_queue_full + report.shed_poisoned);
  EXPECT_EQ(report.responses.size(), reqs.size());
  EXPECT_GT(report.batches, 0);
  EXPECT_GT(report.served, 0);
  EXPECT_GT(report.completed_qps, 0.0);
  EXPECT_LE(report.p50_s, report.p95_s);
  EXPECT_LE(report.p95_s, report.p99_s);
  EXPECT_LE(report.p99_s, report.max_latency_s);

  for (const Response& r : report.responses) {
    if (r.shed) {
      EXPECT_NE(r.shed_reason, ShedReason::kNone);
      EXPECT_TRUE(r.logits.empty());
      continue;
    }
    EXPECT_GE(r.latency_s, 0.0);
    EXPECT_GE(r.done_s, r.arrival_s);
    EXPECT_GE(r.batch_rows, 1);
    EXPECT_LE(r.batch_rows, SmallOptions().batch.max_batch);
    EXPECT_GE(r.worker, 0);
    EXPECT_LT(r.worker, engine.num_workers());
    ASSERT_EQ(r.logits.size(), static_cast<std::size_t>(ds.num_classes));
  }
}

TEST(ServeEngine, RunIsBitDeterministicAcrossEngines) {
  const Dataset ds = SmallDataset(16, 1200);
  const std::vector<Request> reqs =
      GenerateTraffic(SmallTraffic(ds.graph.num_nodes(), 8000.0, 0.01));

  ServeEngine a(ds, SingleMachineCluster(2), SmallModel(), SmallOptions());
  ServeEngine b(ds, SingleMachineCluster(2), SmallModel(), SmallOptions());
  const ServeReport ra = a.Run(reqs);
  const ServeReport rb = b.Run(reqs);

  ASSERT_EQ(ra.responses.size(), rb.responses.size());
  EXPECT_EQ(ra.served, rb.served);
  EXPECT_EQ(ra.shed, rb.shed);
  EXPECT_DOUBLE_EQ(ra.p99_s, rb.p99_s);
  EXPECT_DOUBLE_EQ(ra.completed_qps, rb.completed_qps);
  for (std::size_t i = 0; i < ra.responses.size(); ++i) {
    EXPECT_EQ(ra.responses[i].id, rb.responses[i].id);
    EXPECT_DOUBLE_EQ(ra.responses[i].done_s, rb.responses[i].done_s);
    ASSERT_EQ(ra.responses[i].logits.size(), rb.responses[i].logits.size());
    if (!ra.responses[i].logits.empty()) {
      EXPECT_EQ(std::memcmp(ra.responses[i].logits.data(),
                            rb.responses[i].logits.data(),
                            ra.responses[i].logits.size() * sizeof(float)),
                0);
    }
  }
}

// A dataset whose features are generated on demand serves like the same
// graph with a materialized matrix: the engine builds its store through
// MakeFeatureStore and takes the model's input width from the dataset, and
// the simulated timing depends on shapes and tiers, never on values.
TEST(ServeEngine, ProceduralFeaturesServeWithTheMaterializedTiming) {
  const Dataset ds = SmallDataset(16, 1200);
  Dataset procedural = ds;
  procedural.features = Tensor();
  procedural.procedural_feature_dim = ds.feature_dim();
  procedural.procedural_feature_seed = 3;
  const std::vector<Request> reqs =
      GenerateTraffic(SmallTraffic(ds.graph.num_nodes(), 8000.0, 0.01));

  ServeEngine a(ds, SingleMachineCluster(2), SmallModel(), SmallOptions());
  ServeEngine b(procedural, SingleMachineCluster(2), SmallModel(), SmallOptions());
  const ServeReport ra = a.Run(reqs);
  const ServeReport rb = b.Run(reqs);

  EXPECT_GT(rb.served, 0);
  EXPECT_EQ(ra.served, rb.served);
  EXPECT_EQ(ra.shed, rb.shed);
  ASSERT_EQ(ra.responses.size(), rb.responses.size());
  for (std::size_t i = 0; i < ra.responses.size(); ++i) {
    EXPECT_EQ(ra.responses[i].done_s, rb.responses[i].done_s) << i;
    EXPECT_EQ(ra.responses[i].logits.size(), rb.responses[i].logits.size()) << i;
  }
}

TEST(ServeEngine, MicroBatchingAmortizesFixedOverheads) {
  const Dataset ds = SmallDataset(16, 1200);
  // Overload: offered rate far beyond single-request service capacity.
  const std::vector<Request> reqs =
      GenerateTraffic(SmallTraffic(ds.graph.num_nodes(), 200000.0, 0.01));

  ServeOptions batched = SmallOptions();
  batched.collect_logits = false;
  ServeOptions unbatched = batched;
  unbatched.batch.max_batch = 1;

  ServeEngine a(ds, SingleMachineCluster(2), SmallModel(), batched);
  ServeEngine b(ds, SingleMachineCluster(2), SmallModel(), unbatched);
  const ServeReport ra = a.Run(reqs);
  const ServeReport rb = b.Run(reqs);

  EXPECT_GT(ra.mean_batch_rows, 4.0);
  EXPECT_DOUBLE_EQ(rb.mean_batch_rows, 1.0);
  // The per-request kernel-launch / link-latency overheads amortize across
  // the batch: sustained throughput must rise well beyond batch-1.
  EXPECT_GT(ra.completed_qps, 1.5 * rb.completed_qps);
}

TEST(ServeEngine, ShedsUnderOverloadWithTypedReason) {
  const Dataset ds = SmallDataset(16, 1200);
  ServeOptions opts = SmallOptions();
  opts.collect_logits = false;
  opts.batch.queue_bound = 32;
  // Deeper fanout + a single worker lowers capacity; the offered rate sits
  // far above it so admission control must engage.
  opts.fanouts = {10, 10};
  ServeEngine engine(ds, SingleMachineCluster(1), SmallModel(), opts);
  const std::vector<Request> reqs =
      GenerateTraffic(SmallTraffic(ds.graph.num_nodes(), 2e6, 0.002));
  const ServeReport report = engine.Run(reqs);

  EXPECT_GT(report.shed_queue_full, 0);
  EXPECT_EQ(report.shed_poisoned, 0);
  EXPECT_GT(report.served, 0);  // admitted requests still complete
  for (const Response& r : report.responses) {
    if (r.shed) EXPECT_EQ(r.shed_reason, ShedReason::kQueueFull);
  }
  // Admission control bounds the latency of admitted requests: everything
  // served waited at most the backlog bound's worth of service, not the
  // whole overload backlog.
  EXPECT_LT(report.max_latency_s, 0.05);
}

TEST(ServeEngine, ClockInvariantHoldsAfterConcurrentRun) {
  const Dataset ds = SmallDataset(16, 1200);
  ServeOptions opts = SmallOptions();
  opts.collect_logits = false;
  ServeEngine engine(ds, SingleMachineCluster(4), SmallModel(), opts);
  const std::vector<Request> reqs =
      GenerateTraffic(SmallTraffic(ds.graph.num_nodes(), 50000.0, 0.01));
  engine.Run(reqs);
  engine.sim().DebugCheckClockInvariant();
  for (DeviceId d = 0; d < engine.num_workers(); ++d) {
    EXPECT_GT(engine.sim().Now(d), 0.0);  // every worker did real work
  }
}

TEST(ServeEngine, LoadParamsCopiesTrainedWeightsToAllReplicas) {
  const Dataset ds = SmallDataset(16, 1200);
  ModelConfig cfg = SmallModel();
  cfg.input_dim = ds.feature_dim();
  cfg.num_classes = ds.num_classes;
  GnnModel trained(cfg);
  for (Param* p : trained.Params()) p->value.Fill(0.125f);

  ServeEngine engine(ds, SingleMachineCluster(2), SmallModel(), SmallOptions());
  engine.LoadParams(trained);
  for (DeviceId d = 0; d < engine.num_workers(); ++d) {
    for (Param* p : engine.model(d).Params()) {
      for (std::int64_t i = 0; i < p->value.numel(); ++i) {
        ASSERT_EQ(p->value.data()[i], 0.125f);
      }
    }
  }
}

// --- metrics + trace analysis ---------------------------------------------

TEST(ServeObs, MetricsAndServingReportSection) {
  obs::Metrics::ResetForTest();
  obs::Tracer::Global().Clear();
  obs::SetTracingEnabled(true);

  const Dataset ds = SmallDataset(16, 1200);
  ServeOptions opts = SmallOptions();
  opts.collect_logits = false;
  ServeEngine engine(ds, SingleMachineCluster(2), SmallModel(), opts);
  const std::vector<Request> reqs =
      GenerateTraffic(SmallTraffic(ds.graph.num_nodes(), 20000.0, 0.01));
  const ServeReport report = engine.Run(reqs);

  obs::SetTracingEnabled(false);
  auto& m = obs::Metrics::Global();
  EXPECT_EQ(m.counter("serve.requests.offered").Get(), report.offered);
  EXPECT_EQ(m.counter("serve.requests.served").Get(), report.served);
  EXPECT_EQ(m.counter("serve.requests.shed").Get(), report.shed);
  EXPECT_EQ(m.counter("serve.batches.closed").Get(), report.batches);
  EXPECT_DOUBLE_EQ(m.gauge("serve.latency.p99_s").Get(), report.p99_s);
  EXPECT_DOUBLE_EQ(m.gauge("serve.qps.completed").Get(), report.completed_qps);

  const std::vector<obs::TraceEvent> events = obs::Tracer::Global().Drain();
  const obs::TraceSet set =
      obs::AnalyzeEvents(events, obs::Tracer::Global().SimTracks());
  const obs::TraceAnalysis* track = nullptr;
  for (const obs::TraceAnalysis& t : set.tracks) {
    if (t.serve.Any()) track = &t;
  }
  ASSERT_NE(track, nullptr);
  EXPECT_EQ(track->serve.latency.count, report.served);
  EXPECT_EQ(track->serve.shed, report.shed);
  EXPECT_EQ(track->serve.batches, report.batches);
  EXPECT_DOUBLE_EQ(track->serve.mean_batch_rows, report.mean_batch_rows);
  EXPECT_DOUBLE_EQ(track->serve.latency.p99_s, report.p99_s);
  // Serving spans are their own bucket: the device phase accounting must
  // only carry the sample/load/train busy phases, and the phase maxima must
  // match the per-device clocks (serve spans excluded from the window).
  for (const auto& [cat, v] : track->phase_max_s) {
    EXPECT_TRUE(cat == "sample" || cat == "load" || cat == "train") << cat;
    EXPECT_GT(v, 0.0);
  }

  std::ostringstream os;
  obs::WriteReport(os, set, /*all_tracks=*/true);
  EXPECT_NE(os.str().find("serving: requests"), std::string::npos);
  EXPECT_NE(os.str().find("request latency"), std::string::npos);
}

}  // namespace
}  // namespace apt::serve
