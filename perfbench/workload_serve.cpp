// serve_poisson — the read path, open loop on the simulated clock: Poisson
// arrivals at 400k QPS offered for 0.5 simulated seconds with Zipf(0.8)
// seed popularity, ps_like at scale 1.0 on one 4-GPU machine, micro-batches
// closing at 32 requests or 1 ms, queue bound 256, 2-layer GraphSAGE with
// hidden 32. The trace is generated during set-up and replayed, so the host
// never runs late against the arrival schedule. Each timed run serves the
// whole trace on a freshly built engine, so every run answers identically.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "engine/exec_common.h"
#include "report.h"
#include "runtime/parallel_for.h"
#include "sampling/merge_batches.h"
#include "serve/serve_engine.h"
#include "serve/traffic.h"
#include "spans.h"

namespace perfbench {

namespace {

using namespace apt;
using serve::PlannedBatch;
using serve::Request;
using serve::Response;
using serve::ServeEngine;

constexpr std::size_t kCheckPrefix = 8192;  ///< requests in the one-lane check
constexpr std::size_t kSoloChecks = 64;      ///< requests checked against ServeSolo

struct ServeRig {
  Dataset dataset;
  ModelConfig model;
  serve::ServeOptions options;
  std::vector<Request> trace;
  double generate_s = 0.0;
  double engine_build_s = 0.0;
  double total_s = 0.0;

  std::unique_ptr<ServeEngine> Engine(bool collect_logits) const {
    serve::ServeOptions o = options;
    o.collect_logits = collect_logits;
    return std::make_unique<ServeEngine>(dataset, SingleMachineCluster(4), model, o);
  }
};

std::unique_ptr<ServeRig> MakeRig(std::uint64_t seed) {
  auto rig = std::make_unique<ServeRig>();
  const double t0 = Now();
  DatasetParams params = PsLikeParams(1.0);
  params.seed = seed;
  rig->dataset = MakeDataset(params);
  const double t1 = Now();
  rig->model.kind = ModelKind::kSage;
  rig->model.num_layers = 2;
  rig->model.hidden_dim = 32;
  rig->options.fanouts = {10, 10};
  rig->options.batch.max_batch = 32;
  rig->options.batch.max_delay_s = 1e-3;
  rig->options.batch.queue_bound = 256;
  rig->options.cache_bytes_per_device = rig->dataset.FeatureBytes() / 16;
  rig->options.popularity_alpha = 0.8;
  rig->options.collect_logits = false;
  const auto engine = rig->Engine(false);  // cache warm-up, timed as set-up
  const double t2 = Now();
  serve::TrafficConfig traffic;
  traffic.kind = serve::ArrivalKind::kPoisson;
  traffic.rate_qps = 400e3;
  traffic.duration_s = 0.5;
  traffic.num_nodes = rig->dataset.graph.num_nodes();
  traffic.zipf_alpha = 0.8;
  traffic.seed = seed;
  rig->trace = serve::GenerateTraffic(traffic);
  rig->generate_s = t1 - t0;
  rig->engine_build_s = t2 - t1;
  rig->total_s = Now() - t0;
  return rig;
}

/// Nearest-rank percentile, as the serving engine reports it.
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

/// What a serving run answered, in arrival order.
struct Served {
  std::vector<Response> responses;
  std::int64_t requests = 0;  ///< kept when `responses` is dropped
  std::int64_t batches = 0;
  double mean_batch_rows = 0.0;
  double p50_s = 0.0;
  double p99_s = 0.0;
  std::int64_t shed = 0;
  double host_s = 0.0;  ///< wall
  double cpu_s = 0.0;   ///< user + sys of the process
  double peak_rss_mb = 0.0;  ///< process peak when the run ended
};

void Summarize(Served& s) {
  std::sort(s.responses.begin(), s.responses.end(), [](const Response& a, const Response& b) {
    return a.arrival_s != b.arrival_s ? a.arrival_s < b.arrival_s : a.id < b.id;
  });
  s.requests = static_cast<std::int64_t>(s.responses.size());
  std::vector<double> latencies;
  for (const Response& r : s.responses) {
    if (r.shed) {
      ++s.shed;
    } else {
      latencies.push_back(r.latency_s);
    }
  }
  std::sort(latencies.begin(), latencies.end());
  s.p50_s = Percentile(latencies, 0.50);
  s.p99_s = Percentile(latencies, 0.99);
}

/// The library's own serving loop, ServeEngine::Run, on a fresh engine.
Served RunLibrary(const ServeRig& rig, std::span<const Request> trace, bool collect_logits) {
  const auto engine = rig.Engine(collect_logits);
  const Usage u0 = Usage::Take();
  serve::ServeReport report = engine->Run(trace);
  const Usage used = Usage::Take().Since(u0);
  Served s;
  s.host_s = used.wall_s;
  s.cpu_s = used.user_s + used.sys_s;
  s.peak_rss_mb = used.peak_rss_mb;
  s.responses = std::move(report.responses);
  s.batches = report.batches;
  s.mean_batch_rows = report.mean_batch_rows;
  Summarize(s);
  return s;
}

/// The traced replay: ServeEngine::Run restated from public calls
/// (PlanBatches, NeighborSampler::Sample, MergeSampledBatches,
/// FeatureStore::Gather, GnnModel::ForwardFrom) with the same simulated
/// charges, so its latencies must equal the library's bit for bit. Spans:
/// serve.run > serve.plan_batches > per-batch layers on the worker threads.
/// Logits are kept for the requests in `keep` (batch-invariance check).
Served RunReplay(const ServeRig& rig, std::span<const Request> trace,
                 const std::vector<serve::RequestId>& keep,
                 std::vector<std::vector<float>>& kept_logits) {
  const auto engine = rig.Engine(false);
  SimContext& sim = engine->sim();
  FeatureStore& store = engine->store();
  const NeighborSampler sampler(rig.dataset.graph, rig.options.fanouts);
  const std::int32_t workers = engine->num_workers();
  kept_logits.assign(keep.size(), {});

  const auto execute = [&](DeviceId dev, const PlannedBatch& batch, double busy_until,
                           std::vector<Response>& out, SpanId parent) {
    const auto rows = static_cast<std::int64_t>(batch.requests.size());
    const double rows_arg = static_cast<double>(rows);
    const double busy0 = sim.Now(dev);
    std::vector<SampledBatch> parts;
    parts.reserve(batch.requests.size());
    double sample_s = 0.0;
    const double edge_s = sim.cluster().machine(sim.cluster().MachineOf(dev)).cpu_sample_edge_s;
    std::size_t hops = 0;
    for (const Request& r : batch.requests) {
      {
        Scope span("sampling.sample", parent);
        Rng rng = Rng(rig.options.sample_seed).Fork(static_cast<std::uint64_t>(r.id));
        parts.push_back(sampler.Sample(std::span<const NodeId>(&r.seed, 1), rng));
      }
      sample_s += SampleTreeEdges(parts.back()) * edge_s;
      hops = std::max(hops, parts.back().blocks.size());
    }
    sample_s += static_cast<double>(hops) * sim.cluster().device(dev).kernel_launch_s;
    sim.AdvanceLabeled(dev, sample_s, Phase::kSample, "serve.sample", {{"rows", rows_arg}});

    std::vector<const SampledBatch*> ptrs;
    for (const SampledBatch& p : parts) ptrs.push_back(&p);
    MergedBatch merged;
    {
      Scope span("sampling.merge", parent);
      merged = MergeSampledBatches(ptrs);
    }
    const std::span<const NodeId> input_nodes = merged.batch.input_nodes();
    const std::int64_t dim = store.feature_dim();
    Tensor feats(static_cast<std::int64_t>(input_nodes.size()), dim);
    {
      Scope span("feature.gather", parent);
      store.Gather(dev, input_nodes, 0, dim, feats);
    }
    GnnModel& model = engine->model(dev);
    sim.AdvanceLabeled(dev, sim.ComputeSeconds(dev, model.ForwardFlops(merged.batch.blocks)),
                       Phase::kTrain, "serve.forward", {{"rows", rows_arg}});
    Tensor logits;
    {
      Scope span("model.forward", parent);
      logits = model.ForwardFrom(0, merged.batch.blocks, feats, nullptr);
    }
    const double done_s = std::max(batch.close_s, busy_until) + (sim.Now(dev) - busy0);
    for (std::size_t i = 0; i < batch.requests.size(); ++i) {
      const Request& req = batch.requests[i];
      Response resp;
      resp.id = req.id;
      resp.seed = req.seed;
      resp.arrival_s = req.arrival_s;
      resp.done_s = done_s;
      resp.latency_s = done_s - req.arrival_s;
      resp.batch_rows = rows;
      resp.worker = dev;
      const auto k = std::lower_bound(keep.begin(), keep.end(), req.id);
      if (k != keep.end() && *k == req.id) {
        const auto span = logits.row_span(merged.seed_offsets[i]);
        kept_logits[static_cast<std::size_t>(k - keep.begin())].assign(span.begin(), span.end());
      }
      out.push_back(std::move(resp));
    }
    return done_s;
  };

  Served s;
  const Usage u0 = Usage::Take();
  {
    Scope run("serve.run");
    // Round-robin waves of one batch per worker, executed concurrently; the
    // dispatch answer feeds the batcher's admission backlog.
    std::vector<PlannedBatch> wave;
    std::vector<double> busy(static_cast<std::size_t>(workers), 0.0);
    std::vector<std::vector<Response>> per_worker(static_cast<std::size_t>(workers));
    SpanId wave_parent = run.id();
    const auto execute_wave = [&]() {
      ParallelFor(
          0, static_cast<std::int64_t>(wave.size()),
          [&](std::int64_t w) {
            const auto i = static_cast<std::size_t>(w);
            busy[i] = execute(static_cast<DeviceId>(w), wave[i], busy[i], per_worker[i],
                              wave_parent);
          },
          /*grain=*/1);
      s.batches += static_cast<std::int64_t>(wave.size());
      wave.clear();
    };
    const serve::DispatchFn dispatch = [&](const PlannedBatch& batch) {
      const double start_s = std::max(batch.close_s, busy[wave.size()]);
      wave.push_back(batch);
      if (wave.size() == static_cast<std::size_t>(workers)) execute_wave();
      return start_s;
    };
    serve::BatchPlan plan;
    {
      Scope span("serve.plan_batches");
      wave_parent = span.id();
      plan = serve::PlanBatches(trace, rig.options.batch, dispatch);
    }
    wave_parent = run.id();
    execute_wave();
    for (const Request& r : plan.shed) {
      Response resp;
      resp.id = r.id;
      resp.seed = r.seed;
      resp.arrival_s = r.arrival_s;
      resp.done_s = r.arrival_s;
      resp.shed = true;
      resp.shed_reason = serve::ShedReason::kQueueFull;
      s.responses.push_back(resp);
    }
    for (auto& out : per_worker) {
      for (Response& resp : out) s.responses.push_back(std::move(resp));
    }
    Summarize(s);
  }
  const Usage used = Usage::Take().Since(u0);
  s.host_s = used.wall_s;
  s.cpu_s = used.user_s + used.sys_s;
  return s;
}

bool SameResponses(const Served& a, const Served& b, bool logits) {
  if (a.responses.size() != b.responses.size()) return false;
  for (std::size_t i = 0; i < a.responses.size(); ++i) {
    const Response& x = a.responses[i];
    const Response& y = b.responses[i];
    if (x.id != y.id || x.shed != y.shed || x.done_s != y.done_s ||
        x.latency_s != y.latency_s || (logits && x.logits != y.logits)) {
      return false;
    }
  }
  return true;
}

/// Every `stride`-th request id of the trace, at most kSoloChecks of them.
std::vector<serve::RequestId> SoloSample(std::span<const Request> trace) {
  std::vector<serve::RequestId> ids;
  const std::size_t stride = std::max<std::size_t>(1, trace.size() / kSoloChecks);
  for (std::size_t i = 0; i < trace.size() && ids.size() < kSoloChecks; i += stride) {
    ids.push_back(trace[i].id);
  }
  return ids;
}

/// Batch invariance: logits served inside a batch equal ServeSolo's.
bool MatchesSolo(const ServeRig& rig, std::span<const Request> trace,
                 const std::vector<serve::RequestId>& ids,
                 const std::vector<std::vector<float>>& logits) {
  const auto engine = rig.Engine(true);
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const Request& req = trace[static_cast<std::size_t>(ids[k])];  // ids follow arrival order
    const Tensor solo = engine->ServeSolo(req);
    const auto row = solo.row_span(0);
    if (logits[k].empty() || !std::equal(row.begin(), row.end(), logits[k].begin(),
                                         logits[k].end())) {
      return false;
    }
  }
  return true;
}

/// Requests per second of the fastest run, on the wall clock or on the
/// process's CPU clock (which excludes the time the hypervisor steals). The
/// host is shared, and that time comes in bursts the fastest run is least
/// exposed to.
double Throughput(const std::vector<Served>& runs, double Served::*clock = &Served::host_s) {
  double best = 0.0;
  for (const Served& s : runs) {
    best = std::max(best, static_cast<double>(s.requests) / (s.*clock));
  }
  return best;
}

void PrintServed(const char* phase, const std::vector<Served>& runs) {
  const Served& s = runs.front();
  std::printf("%-10s runs=%zu requests=%lld shed=%lld batches=%lld p50_s=%.17g p99_s=%.17g "
              "throughput=%.1f/s %.1f/cpu_s\n",
              phase, runs.size(), static_cast<long long>(s.requests),
              static_cast<long long>(s.shed), static_cast<long long>(s.batches), s.p50_s,
              s.p99_s, Throughput(runs), Throughput(runs, &Served::cpu_s));
}

/// Serves runs until `budget_s` has passed (at least one) and checks that
/// each answers exactly as `ref`, or as the first run when `ref` is null.
/// Only that first run keeps its responses, so memory does not grow with
/// the number of runs.
template <class Serve>
std::vector<Served> RunsUntil(double budget_s, const Served* ref, Result& r,
                              const std::string& what, Serve serve) {
  std::vector<Served> runs;
  bool same = true;
  const double end = Now() + budget_s;
  do {
    Served s = serve();
    const Served* against = ref != nullptr ? ref : runs.empty() ? nullptr : &runs.front();
    if (against != nullptr) {
      same = same && SameResponses(*against, s, false);
      s.responses = std::vector<Response>();  // releases the buffer
    }
    runs.push_back(std::move(s));
  } while (Now() < end);
  r.Check(same, what + ": simulated latencies differ between runs");
  return runs;
}

std::vector<Served> TimedRuns(const ServeRig& rig, double budget_s, const Served* ref,
                              Result& r, const std::string& what) {
  return RunsUntil(budget_s, ref, r, what, [&] { return RunLibrary(rig, rig.trace, false); });
}

void Measure(const Args& args, const ServeRig& rig, double setup_s, Result& r) {
  const std::vector<Served> runs = TimedRuns(rig, args.seconds, nullptr, r, "timed runs");
  PrintServed("timed", runs);

  // One lane against all lanes, logits included, on a prefix of the trace;
  // then the batch-invariance check against ServeSolo.
  const std::span<const Request> prefix(rig.trace.data(),
                                        std::min(kCheckPrefix, rig.trace.size()));
  const Served wide = RunLibrary(rig, prefix, true);
  Served narrow;
  {
    ScopedParallelismLimit one_lane(1);
    narrow = RunLibrary(rig, prefix, true);
  }
  r.Check(SameResponses(wide, narrow, true), "one-lane serving differs from multi-lane");
  const std::vector<serve::RequestId> ids = SoloSample(prefix);
  std::vector<std::vector<float>> logits;
  for (const serve::RequestId id : ids) {
    const Response& resp = wide.responses[static_cast<std::size_t>(id)];
    logits.push_back(resp.id == id ? resp.logits : std::vector<float>{});
  }
  r.Check(MatchesSolo(rig, prefix, ids, logits), "batched logits differ from ServeSolo");

  for (const Served& s : runs) {
    r.attempted += s.requests;
    r.failed += s.shed;
  }
  r.Add("setup_s", setup_s, "s");
  r.Add("throughput_per_cpu_s", Throughput(runs, &Served::cpu_s), "1/cpu_s");
  // After one pass over the trace: later passes only add allocator
  // fragmentation, and how many fit in the time budget depends on the host.
  r.Add("peak_rss_mb", runs.front().peak_rss_mb, "MB");
  r.Add("sim_result_s", runs.front().p99_s, "sim_s");
}

void MeasureTraced(const Args& args, const ServeRig& rig, Result& r) {
  const double phase_s = args.seconds / 3.0;
  // Untimed warm-up, so the first phase does not pay first-touch costs alone.
  RunLibrary(rig, std::span<const Request>(rig.trace.data(),
                                           std::min(kCheckPrefix, rig.trace.size())),
             false);
  const Usage u0 = Usage::Take();
  const std::vector<Served> plain = TimedRuns(rig, phase_s, nullptr, r, "untraced runs");
  const Usage host = Usage::Take().Since(u0);
  PrintServed("untraced", plain);

  const std::vector<serve::RequestId> ids = SoloSample(rig.trace);
  std::vector<std::vector<float>> logits;
  const CounterMap c0 = Counters();
  SetTracing(true);
  const std::vector<Served> traced =
      RunsUntil(phase_s, &plain.front(), r, "traced replay",
                [&] { return RunReplay(rig, rig.trace, ids, logits); });
  SetTracing(false);
  const CounterMap c1 = Counters();
  PrintServed("traced", traced);

  std::vector<Served> one_lane;
  {
    ScopedParallelismLimit limit(1);
    one_lane = TimedRuns(rig, phase_s, &plain.front(), r, "one-lane runs");
  }
  PrintServed("one-lane", one_lane);

  r.Check(MatchesSolo(rig, rig.trace, ids, logits), "replayed logits differ from ServeSolo");
  const std::vector<Served>* all_runs[] = {&plain, &traced, &one_lane};
  for (const std::vector<Served>* runs : all_runs) {
    for (const Served& s : *runs) {
      r.attempted += s.requests;
      r.failed += s.shed;
    }
  }

  std::int64_t plain_batches = 0, traced_batches = 0;
  for (const Served& s : plain) plain_batches += s.batches;
  for (const Served& s : traced) traced_batches += s.batches;
  const SpanReport spans = AnalyzeSpans("serve.run");
  r.Add("graph.generate_s", rig.generate_s, "s");
  r.Add("serve.engine_build_s", rig.engine_build_s, "s");
  AddLayerTimes(r, spans,
                {"sampling.sample", "sampling.merge", "feature.gather", "model.forward"});
  const auto plan = spans.layers.find("serve.plan_batches");
  r.Add("serve.plan_batches_s", plan == spans.layers.end() ? 0.0 : Median(plan->second.self_per_call),
        "s");
  r.Add("serve.mean_batch_rows", plain.front().mean_batch_rows, "rows");
  r.Add("serve.sim_p50_us", plain.front().p50_s * 1e6, "sim_us");
  r.Add("serve.sim_p99_us", plain.front().p99_s * 1e6, "sim_us");
  AddCounters(r, c0, c1, static_cast<double>(traced_batches));
  AddRuntime(r, host, static_cast<double>(plain_batches));
  r.Add("runtime.wall_throughput_per_s", Throughput(plain), "1/s");
  r.Add("runtime.thread_speedup", Throughput(plain) / Throughput(one_lane), "ratio");
  r.Add("unattributed_frac", spans.unattributed_frac, "fraction");
  r.Add("trace.throughput_ratio", Throughput(traced) / Throughput(plain), "ratio");
}

}  // namespace

Result RunServePoisson(const Args& args) {
  std::vector<double> setup_s;
  std::unique_ptr<ServeRig> rig;
  // Set-up is short and noisy here, so it is repeated more than in training.
  for (int i = 0; i < (args.trace ? 1 : 5); ++i) {
    rig.reset();
    rig = MakeRig(args.seed);
    setup_s.push_back(rig->total_s);
  }
  std::printf("setup      generate=%.3fs engine_build=%.3fs total=%.3fs requests=%zu\n",
              rig->generate_s, rig->engine_build_s, rig->total_s, rig->trace.size());
  Result r;
  if (args.trace) {
    MeasureTraced(args, *rig, r);
  } else {
    Measure(args, *rig, Median(setup_s), r);
  }
  return r;
}

}  // namespace perfbench
