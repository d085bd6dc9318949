// Online inference serving engine over trained parameters (ROADMAP item 1).
//
// N request workers — the devices of a simulated cluster — share one
// read-mostly FeatureStore (caches warmed from the request popularity
// distribution via the dry-run frequency machinery) and one frozen
// GnnModel: inference forwards write only their outputs, never the layers,
// so the worker threads run it concurrently. Arrivals stream through the
// dynamic micro-batcher (batcher.h); closed batches round-robin across
// workers and execute CONCURRENTLY on real threads, one thread per worker,
// while every cost lands on the worker's virtual clock — so latency
// percentiles are bit-deterministic regardless of thread schedule.
//
// Determinism invariant (the serving twin of strategy equivalence): each
// request's subgraph is sampled with an RNG stream keyed by the REQUEST id,
// and the batch merge preserves per-row edge order (merge_batches.h), so a
// request's logits are bit-identical whether it is served alone or inside
// any batch. The parity test asserts batch-of-32 == solo exactly.
//
// Failure semantics: admission control sheds with ShedReason::kQueueFull
// past the queue bound; a poisoned barrier (collective fault elsewhere on
// the cluster) sheds every subsequent batch with ShedReason::kPoisoned —
// requests are never silently hung, mirroring the trainer's fail-fast
// barrier poisoning.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "feature/feature_store.h"
#include "graph/dataset.h"
#include "model/gnn_model.h"
#include "obs/slo.h"
#include "obs/telemetry.h"
#include "sampling/neighbor_sampler.h"
#include "serve/batcher.h"
#include "serve/request.h"
#include "sim/hardware.h"
#include "sim/sim_context.h"

namespace apt::serve {

/// The SLO watchdog never tightens the admission queue bound below this.
inline constexpr std::int64_t kSloQueueBoundFloor = 8;

struct ServeOptions {
  std::vector<int> fanouts{10, 10};
  BatchPolicy batch;
  /// GPU cache budget per worker; 0 serves everything from CPU shards.
  std::int64_t cache_bytes_per_device = 0;
  /// Popularity distribution used for cache warmup — should match the
  /// traffic's (TrafficConfig) so the cache is warmed for the real mix.
  double popularity_alpha = 0.8;
  /// Base stream of per-request sampling forks (request id keys the fork).
  std::uint64_t sample_seed = 7;
  /// Keep per-response logits (tests/parity); off saves memory in benches.
  bool collect_logits = true;
  /// Width of the online telemetry windows (obs/telemetry.h) the engine
  /// records serve.latency_s / serve.batch.rows / serve.shed into, in
  /// SIMULATED seconds. <= 0 disables serve telemetry. Like the trainer's,
  /// recording never touches the virtual clocks.
  double telemetry_window_s = 2e-3;
  /// SLO rules the engine's watchdog evaluates at batch-close boundaries
  /// (e.g. "serve.latency_s p99 < 2ms"). Empty disables the watchdog —
  /// zero behavior change from pre-SLO serving. A sustained violation
  /// halves queue_bound (never below kSloQueueBoundFloor), so the engine
  /// sheds earlier and the latency of ADMITTED requests recovers — trading
  /// availability for the latency SLO.
  std::vector<obs::SloRule> slo_rules;
};

/// Aggregate results of one Run (latencies in simulated seconds).
struct ServeReport {
  std::int64_t offered = 0;
  std::int64_t served = 0;
  std::int64_t shed = 0;
  std::int64_t shed_queue_full = 0;
  std::int64_t shed_poisoned = 0;
  std::int64_t batches = 0;
  double mean_batch_rows = 0.0;
  std::int64_t max_batch_rows = 0;
  double mean_latency_s = 0.0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
  double max_latency_s = 0.0;
  /// served / (last completion time): the throughput actually sustained.
  double completed_qps = 0.0;
  double shed_rate = 0.0;  ///< shed / offered
  /// One response per offered request, in arrival order (shed included).
  std::vector<Response> responses;
};

class ServeEngine {
 public:
  /// Builds the serving cluster: feature shards placed by a contiguous
  /// block partition, caches warmed from the popularity distribution, one
  /// frozen model whose parameter bytes every device holds. `dataset` must
  /// outlive the engine.
  ServeEngine(const Dataset& dataset, ClusterSpec cluster, ModelConfig model,
              ServeOptions options);

  /// Copies trained parameters into the served model.
  void LoadParams(GnnModel& src);

  /// Serves one open-loop arrival stream (sorted by arrival time).
  ServeReport Run(std::span<const Request> arrivals);

  /// Serves one request alone on `worker` — the parity baseline. Timing
  /// charges land on worker's clock but cannot affect the returned values.
  /// Returns the seed's logits row(s).
  Tensor ServeSolo(const Request& request, DeviceId worker = 0);

  SimContext& sim() { return *sim_; }
  FeatureStore& store() { return *store_; }
  /// The one served model; every worker runs it.
  GnnModel& model(DeviceId /*dev*/) { return *model_; }
  std::int32_t num_workers() const { return sim_->num_devices(); }

 private:
  /// Samples a request's subgraph with its id-keyed RNG fork.
  SampledBatch SampleRequest(const Request& request) const;

  /// Executes one planned batch on `dev`: sample + gather + forward, all
  /// charged to dev's clock. Appends one response per request to `out`.
  /// `busy_until` is the worker's previous completion time.
  double ExecuteBatch(DeviceId dev, const PlannedBatch& batch,
                      double busy_until, std::vector<Response>& out);

  const Dataset* dataset_;
  ServeOptions opts_;
  std::unique_ptr<SimContext> sim_;
  std::unique_ptr<FeatureStore> store_;
  std::unique_ptr<NeighborSampler> sampler_;
  std::unique_ptr<GnnModel> model_;  ///< frozen; shared by every worker
  std::vector<PartId> partition_;
  /// Per-Run latency series (null = telemetry off). Set by Run, recorded
  /// from ExecuteBatch on worker threads (TimeSeries::Record is
  /// thread-safe and order-independent).
  obs::TimeSeries* telem_latency_ = nullptr;
};

}  // namespace apt::serve
