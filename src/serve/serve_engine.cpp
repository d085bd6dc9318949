#include "serve/serve_engine.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/error.h"
#include "core/random.h"
#include "feature/cache_policy.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/parallel_for.h"
#include "sampling/frequency.h"
#include "sampling/merge_batches.h"

namespace apt::serve {

const char* ToString(ShedReason r) {
  switch (r) {
    case ShedReason::kNone:
      return "none";
    case ShedReason::kQueueFull:
      return "queue_full";
    case ShedReason::kPoisoned:
      return "poisoned";
  }
  return "?";
}

namespace {

// Cache warmup: kWarmupBatches dry-run batches of kWarmupBatchSize seeds
// drawn from the popularity distribution, on streams forked from
// kWarmupSeed.
constexpr int kWarmupBatches = 32;
constexpr std::int64_t kWarmupBatchSize = 64;
constexpr std::uint64_t kWarmupSeed = 99;
constexpr double kPopularityOffset = 0.0;

/// Each sustained SLO violation multiplies the queue bound by this.
constexpr double kSloQueueTightenFactor = 0.5;

/// Nearest-rank percentile over an ascending-sorted latency vector.
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

Response MakeShedResponse(const Request& r, ShedReason reason, double done_s) {
  Response resp;
  resp.id = r.id;
  resp.seed = r.seed;
  resp.arrival_s = r.arrival_s;
  resp.done_s = done_s;
  resp.latency_s = done_s - r.arrival_s;
  resp.shed = true;
  resp.shed_reason = reason;
  return resp;
}

}  // namespace

ServeEngine::ServeEngine(const Dataset& dataset, ClusterSpec cluster,
                         ModelConfig model, ServeOptions options)
    : dataset_(&dataset), opts_(std::move(options)) {
  sim_ = std::make_unique<SimContext>(std::move(cluster));
  const NodeId n = dataset.graph.num_nodes();
  APT_CHECK_GT(n, 0);
  const std::int32_t devices = sim_->num_devices();

  // Contiguous block partition: only feature placement depends on it in
  // serving (which machine's CPU shard holds each row).
  partition_.resize(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    partition_[static_cast<std::size_t>(v)] =
        static_cast<PartId>((v * devices) / n);
  }
  store_ = MakeFeatureStore(
      dataset, FeaturePlacementFromPartition(partition_, sim_->cluster()), *sim_);
  sampler_ = std::make_unique<NeighborSampler>(dataset.graph, opts_.fanouts);

  // Warm the GPU caches from the POPULARITY distribution: dry-run sampling
  // over Zipf-drawn seeds, frequency counts, then the GDP cache rule (every
  // worker serves the same request mix, so the globally-hottest rule is the
  // right one — there is no per-device partition affinity in serving).
  if (opts_.cache_bytes_per_device > 0) {
    FrequencyCollector freq(n);
    Rng warm(kWarmupSeed);
    Rng seed_rng = warm.Fork(0);
    Rng sample_rng = warm.Fork(1);
    const ZipfSampler popularity(n, opts_.popularity_alpha, kPopularityOffset);
    for (int b = 0; b < kWarmupBatches; ++b) {
      std::vector<NodeId> seeds(static_cast<std::size_t>(kWarmupBatchSize));
      for (NodeId& s : seeds) s = popularity.Sample(seed_rng);
      Rng rng = sample_rng.Fork(static_cast<std::uint64_t>(b));
      freq.Record(sampler_->Sample(seeds, rng));
    }
    CachePolicyInput in;
    in.strategy = Strategy::kGDP;
    in.budget_bytes_per_device = opts_.cache_bytes_per_device;
    in.feature_dim = store_->feature_dim();
    in.num_devices = devices;
    in.hotness = freq.counts();
    in.partition = partition_;
    in.graph = &dataset.graph;
    const CacheConfig cache = ConfigureCache(in);
    store_->ConfigureCaches(cache.cache_nodes,
                            store_->CachedRowBytes(store_->feature_dim()));
  }

  if (model.input_dim == 0) model.input_dim = dataset.feature_dim();
  if (model.num_classes == 0) model.num_classes = dataset.num_classes;
  model_ = std::make_unique<GnnModel>(model);
  // Each simulated GPU still holds its own copy of the parameters.
  for (std::int32_t d = 0; d < devices; ++d) {
    sim_->AllocPersistent(d, model_->ParamBytes());
  }
}

void ServeEngine::LoadParams(GnnModel& src) { model_->CopyParamsFrom(src); }

SampledBatch ServeEngine::SampleRequest(const Request& request) const {
  // The fork is keyed by the REQUEST id, never by batch position: sampling
  // must not depend on which batch the request landed in (batch invariance).
  Rng rng = Rng(opts_.sample_seed).Fork(static_cast<std::uint64_t>(request.id));
  const NodeId seed = request.seed;
  return sampler_->Sample(std::span<const NodeId>(&seed, 1), rng);
}

double ServeEngine::ExecuteBatch(DeviceId dev, const PlannedBatch& batch,
                                 double busy_until,
                                 std::vector<Response>& out) {
  const auto rows = static_cast<std::int64_t>(batch.requests.size());
  const double rows_arg = static_cast<double>(rows);
  const double busy0 = sim_->Now(dev);

  // Sampling cost, charged as the trainer charges a training batch
  // (engine/exec_common.cpp): one UVA edge read per expansion-tree edge —
  // per-request work that never amortizes — plus per-HOP kernel launches,
  // charged once per batch: the merged batch's frontier expands with one
  // fused kernel per layer no matter how many requests it carries. The
  // launch amortization is most of why micro-batching wins.
  std::vector<SampledBatch> parts;
  parts.reserve(batch.requests.size());
  double sample_s = 0.0;
  const double edge_s =
      sim_->cluster().machine(sim_->cluster().MachineOf(dev)).cpu_sample_edge_s;
  const double launch_s = sim_->cluster().device(dev).kernel_launch_s;
  std::size_t hops = 0;
  for (const Request& r : batch.requests) {
    parts.push_back(SampleRequest(r));
    sample_s += SampleTreeEdges(parts.back()) * edge_s;
    hops = std::max(hops, parts.back().blocks.size());
  }
  sample_s += static_cast<double>(hops) * launch_s;
  sim_->AdvanceLabeled(dev, sample_s, Phase::kSample, "serve.sample",
                       {{"rows", rows_arg}});

  std::vector<const SampledBatch*> part_ptrs;
  part_ptrs.reserve(parts.size());
  for (const SampledBatch& p : parts) part_ptrs.push_back(&p);
  const MergedBatch merged = MergeSampledBatches(part_ptrs);

  const std::span<const NodeId> input_nodes = merged.batch.input_nodes();
  const std::int64_t dim = store_->feature_dim();
  Tensor feats = Tensor::Uninit(static_cast<std::int64_t>(input_nodes.size()), dim);
  store_->Gather(dev, input_nodes, 0, dim, feats);  // charges Phase::kLoad

  sim_->AdvanceLabeled(dev,
                       sim_->ComputeSeconds(dev, model_->ForwardFlops(merged.batch.blocks)),
                       Phase::kTrain, "serve.forward", {{"rows", rows_arg}});
  const Tensor logits = model_->ForwardFrom(0, merged.batch.blocks, feats, nullptr);

  // Virtual timing: the device clock is a BUSY-time accumulator (it never
  // idles between batches), so wall completion = when the batch could start
  // (close time, or the worker still draining its previous batch) plus this
  // batch's busy time.
  const double service_s = sim_->Now(dev) - busy0;
  const double start_s = std::max(batch.close_s, busy_until);
  const double done_s = start_s + service_s;

  if (obs::TracingEnabled()) {
    obs::EmitSimSpan(sim_->ObsPid(), sim_->ObsStepLane(), start_s, done_s,
                     "batch", "serve",
                     {{"rows", rows_arg}, {"service_s", service_s}});
  }

  obs::Histogram& latency_hist = obs::Metrics::Global().histogram("serve.latency_s");
  for (std::size_t r = 0; r < batch.requests.size(); ++r) {
    const Request& req = batch.requests[r];
    Response resp;
    resp.id = req.id;
    resp.seed = req.seed;
    resp.arrival_s = req.arrival_s;
    resp.done_s = done_s;
    resp.latency_s = done_s - req.arrival_s;
    resp.batch_rows = rows;
    resp.worker = dev;
    latency_hist.Record(resp.latency_s);
    if (telem_latency_ != nullptr) {
      telem_latency_->Record(done_s, resp.latency_s);
    }
    if (opts_.collect_logits) {
      const std::int64_t lo = merged.seed_offsets[r];
      const std::int64_t hi = lo + merged.seed_counts[r];
      resp.logits.reserve(static_cast<std::size_t>((hi - lo) * logits.cols()));
      for (std::int64_t row = lo; row < hi; ++row) {
        const auto span = logits.row_span(row);
        resp.logits.insert(resp.logits.end(), span.begin(), span.end());
      }
    }
    out.push_back(std::move(resp));
  }
  return done_s;
}

ServeReport ServeEngine::Run(std::span<const Request> arrivals) {
  const std::int32_t workers = num_workers();

  // Online telemetry: latencies land at done_s (from worker threads inside
  // ExecuteBatch), batch occupancies at close_s (here, single-threaded),
  // shed rejections at arrival_s (report assembly).
  telem_latency_ = nullptr;
  obs::TimeSeries* telem_rows = nullptr;
  obs::TimeSeries* telem_shed = nullptr;
  if (opts_.telemetry_window_s > 0.0) {
    auto& telemetry = obs::Telemetry::Global();
    telem_latency_ = &telemetry.series("serve.latency_s", opts_.telemetry_window_s);
    telem_rows = &telemetry.series("serve.batch.rows", opts_.telemetry_window_s);
    telem_shed = &telemetry.series("serve.shed", opts_.telemetry_window_s);
  }

  // Admission control reads `policy.queue_bound` per arrival through the
  // const ref, so the watchdog's tightening below takes effect on every
  // subsequent admission decision of THIS plan.
  BatchPolicy policy = opts_.batch;
  const bool slo_on = telem_latency_ != nullptr && !opts_.slo_rules.empty();
  obs::SloWatchdog watchdog(opts_.slo_rules);
  watchdog.set_callback([&policy](const obs::SloViolation&) {
    const std::int64_t next = std::max<std::int64_t>(
        kSloQueueBoundFloor,
        static_cast<std::int64_t>(static_cast<double>(policy.queue_bound) *
                                  kSloQueueTightenFactor));
    if (next >= policy.queue_bound) return;
    policy.queue_bound = next;
    auto& m = obs::Metrics::Global();
    m.counter("serve.slo.queue_bound_tightened").Increment();
    m.gauge("serve.queue_bound").Set(static_cast<double>(next));
  });

  // Execution interleaves with batching in round-robin WAVES: batch i goes
  // to worker i % W, and once W batches have closed the whole wave executes
  // concurrently (one real thread per worker; each simulated cost lands on
  // the worker's own clock, so the numbers are bit-identical to a serial
  // run). Wave-synchronous execution is what makes admission control both
  // real and deterministic: when the batcher closes a batch, its worker's
  // previous batch (last wave) has already executed, so the dispatch
  // callback can answer with the true start time and the batcher sheds on
  // the actual closed-but-unstarted backlog. The VIRTUAL timeline carries no
  // wave barrier — each worker's batch starts at max(close, own previous
  // completion), exactly as an asynchronous round-robin server would.
  struct WaveSlot {
    PlannedBatch batch;
    double start_s = 0.0;
  };
  std::vector<WaveSlot> wave;
  wave.reserve(static_cast<std::size_t>(workers));
  std::vector<double> busy(static_cast<std::size_t>(workers), 0.0);
  std::vector<std::vector<Response>> per_worker(
      static_cast<std::size_t>(workers));

  const auto execute_wave = [&]() {
    ParallelFor(
        0, static_cast<std::int64_t>(wave.size()),
        [&](std::int64_t w) {
          const WaveSlot& slot = wave[static_cast<std::size_t>(w)];
          auto& out = per_worker[static_cast<std::size_t>(w)];
          if (sim_->BarrierPoisoned()) {
            // Fail fast, never hang: every request of a batch dispatched
            // after the cluster poisoned gets a typed rejection at its
            // batch's close time.
            for (const Request& r : slot.batch.requests) {
              if (telem_shed != nullptr) {
                telem_shed->Record(slot.batch.close_s, 1.0);
              }
              out.push_back(
                  MakeShedResponse(r, ShedReason::kPoisoned, slot.batch.close_s));
            }
            return;
          }
          busy[static_cast<std::size_t>(w)] = ExecuteBatch(
              static_cast<DeviceId>(w), slot.batch, busy[static_cast<std::size_t>(w)],
              out);
        },
        /*grain=*/1);
    wave.clear();
  };

  const DispatchFn dispatch = [&](const PlannedBatch& batch) -> double {
    const std::size_t w = wave.size();
    const double start_s = std::max(batch.close_s, busy[w]);
    if (telem_rows != nullptr) {
      telem_rows->Record(batch.close_s,
                         static_cast<double>(batch.requests.size()));
    }
    wave.push_back({batch, start_s});
    if (wave.size() == static_cast<std::size_t>(workers)) {
      execute_wave();
      // Deterministic watchdog point: the wave has fully executed (join
      // above) and close times are monotone, so every window before
      // WindowOf(close_s) is final — later batches complete at
      // done_s >= their close_s >= this close_s and can only land in
      // windows the cursor has not passed yet.
      if (slo_on) watchdog.Evaluate(batch.close_s);
    }
    return start_s;
  };

  const BatchPlan plan = PlanBatches(arrivals, policy, dispatch);
  execute_wave();  // final partial wave

  ServeReport report;
  report.offered = static_cast<std::int64_t>(arrivals.size());
  report.responses.reserve(arrivals.size());
  for (const Request& r : plan.shed) {
    if (telem_shed != nullptr) telem_shed->Record(r.arrival_s, 1.0);
    report.responses.push_back(
        MakeShedResponse(r, ShedReason::kQueueFull, r.arrival_s));
  }
  if (slo_on) {
    // Close out the tail: one final evaluation strictly past the last
    // completion so the last windows with data become visible.
    double end_s = 0.0;
    for (const double b : busy) end_s = std::max(end_s, b);
    watchdog.Evaluate(end_s + opts_.telemetry_window_s);
  }
  telem_latency_ = nullptr;
  for (auto& worker_responses : per_worker) {
    for (Response& resp : worker_responses) {
      report.responses.push_back(std::move(resp));
    }
  }
  std::sort(report.responses.begin(), report.responses.end(),
            [](const Response& a, const Response& b) {
              return a.arrival_s != b.arrival_s ? a.arrival_s < b.arrival_s
                                                : a.id < b.id;
            });

  std::vector<double> latencies;
  double last_completion = 0.0;
  for (const Response& resp : report.responses) {
    if (resp.shed) {
      ++report.shed;
      if (resp.shed_reason == ShedReason::kQueueFull) ++report.shed_queue_full;
      if (resp.shed_reason == ShedReason::kPoisoned) ++report.shed_poisoned;
      continue;
    }
    ++report.served;
    latencies.push_back(resp.latency_s);
    report.mean_latency_s += resp.latency_s;
    report.max_latency_s = std::max(report.max_latency_s, resp.latency_s);
    last_completion = std::max(last_completion, resp.done_s);
  }
  std::sort(latencies.begin(), latencies.end());
  if (report.served > 0) {
    report.mean_latency_s /= static_cast<double>(report.served);
    report.p50_s = Percentile(latencies, 0.50);
    report.p95_s = Percentile(latencies, 0.95);
    report.p99_s = Percentile(latencies, 0.99);
  }
  if (last_completion > 0.0) {
    report.completed_qps = static_cast<double>(report.served) / last_completion;
  }
  if (report.offered > 0) {
    report.shed_rate =
        static_cast<double>(report.shed) / static_cast<double>(report.offered);
  }
  report.batches = static_cast<std::int64_t>(plan.batches.size());
  std::int64_t batch_rows = 0;
  for (const PlannedBatch& b : plan.batches) {
    const auto rows = static_cast<std::int64_t>(b.requests.size());
    batch_rows += rows;
    report.max_batch_rows = std::max(report.max_batch_rows, rows);
  }
  if (report.batches > 0) {
    report.mean_batch_rows = static_cast<double>(batch_rows) /
                             static_cast<double>(report.batches);
  }

  auto& metrics = obs::Metrics::Global();
  metrics.counter("serve.requests.offered").Add(report.offered);
  metrics.counter("serve.requests.served").Add(report.served);
  metrics.counter("serve.requests.shed").Add(report.shed);
  metrics.counter("serve.shed.queue_full").Add(report.shed_queue_full);
  metrics.counter("serve.shed.poisoned").Add(report.shed_poisoned);
  metrics.counter("serve.batches.closed").Add(report.batches);
  metrics.counter("serve.batch.rows").Add(batch_rows);
  metrics.gauge("serve.latency.p50_s").Set(report.p50_s);
  metrics.gauge("serve.latency.p95_s").Set(report.p95_s);
  metrics.gauge("serve.latency.p99_s").Set(report.p99_s);
  metrics.gauge("serve.latency.mean_s").Set(report.mean_latency_s);
  metrics.gauge("serve.qps.completed").Set(report.completed_qps);
  metrics.gauge("serve.shed.rate").Set(report.shed_rate);
  metrics.gauge("serve.batch.mean_rows").Set(report.mean_batch_rows);

  if (obs::TracingEnabled()) {
    const std::int32_t pid = sim_->ObsPid();
    const std::int32_t lane = sim_->ObsStepLane();
    for (const Response& resp : report.responses) {
      if (resp.shed) {
        obs::EmitSimSpan(pid, lane, resp.arrival_s, resp.done_s, "shed",
                         "serve", {{"reason", 0.0, ToString(resp.shed_reason)}});
      } else {
        obs::EmitSimSpan(pid, lane, resp.arrival_s, resp.done_s, "request",
                         "serve",
                         {{"rows", static_cast<double>(resp.batch_rows)}});
      }
    }
  }
  return report;
}

Tensor ServeEngine::ServeSolo(const Request& request, DeviceId worker) {
  const SampledBatch part = SampleRequest(request);
  const std::int64_t dim = store_->feature_dim();
  Tensor feats = Tensor::Uninit(static_cast<std::int64_t>(part.input_nodes().size()), dim);
  store_->Gather(worker, part.input_nodes(), 0, dim, feats);
  return model_->ForwardFrom(0, part.blocks, feats, nullptr);
}

}  // namespace apt::serve
