// Dry-run: the data-dependent half of APT's "Plan" stage (paper §3.2).
//
// One epoch of graph sampling is performed per seed-assignment family and
// the samples are routed through each strategy's Permute logic WITHOUT
// loading features, shuffling embeddings, or computing — only volumes are
// collected. Every step of every strategy is counted on the charge list
// its executor commits (engine/pair_routing.h: the plan, the StepLoad rule
// and the StepCharges builder), so the volumes are the executors' charges:
//   * node access frequencies (drives the cache configuration),
//   * computation-graph shuffle bytes (the strategy part of T_build),
//   * per-device feature-load volumes by memory tier (T_load),
//   * hidden-embedding shuffle rows/bytes (T_shuffle),
//   * estimated transient memory (feasibility, e.g. NFP+GAT OOM).
//
// Sampling passes are deterministic (Rng-seeded), so the subsequent cache
// tier classification replays exactly the samples used for counting.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "comm/profiler.h"
#include "core/types.h"
#include "engine/engine_types.h"
#include "feature/cache_policy.h"
#include "feature/feature_store.h"
#include "graph/dataset.h"
#include "model/gnn_model.h"
#include "sim/hardware.h"

namespace apt {

/// Per-strategy dry-run measurements for one epoch.
struct StrategyDryRun {
  double sample_seconds = 0.0;         ///< graph sampling (max over devices)
  std::int64_t graph_shuffle_bytes = 0;  ///< computation-graph wire bytes
  double graph_shuffle_seconds = 0.0;
  std::vector<LoadVolume> load;        ///< per device
  double load_seconds = 0.0;           ///< max over devices
  std::int64_t shuffle_rows = 0;       ///< hidden-embedding rows moved (epoch)
  std::int64_t shuffle_bytes = 0;      ///< logical fp32, incl. fwd + bwd
  std::int64_t shuffle_wire_bytes = 0;  ///< post-wire-codec bytes on the links
  double shuffle_seconds = 0.0;
  /// Wire-codec encode/decode compute for this strategy's embedding
  /// shuffles (memory-bound passes over the logical payload; zero under the
  /// identity codec). Load-side decode is already inside load_seconds.
  double codec_seconds = 0.0;
  std::int64_t peak_transient_bytes = 0;  ///< max over devices, per step
  /// Execute compute for the epoch: per-step max over devices of the full
  /// forward+backward flop time, summed over steps. Strategy-independent in
  /// the paper's model (T_train), but measured per seed-assignment family so
  /// the pipelined cost model can overlap it against that family's comm.
  double train_compute_seconds = 0.0;
  bool fits_memory = true;

  double ComparableSeconds() const {
    return sample_seconds + graph_shuffle_seconds + load_seconds + shuffle_seconds;
  }
};

struct DryRunResult {
  std::vector<std::int64_t> hotness;  ///< global access counts per node
  std::array<StrategyDryRun, kNumStrategies> per_strategy;
  std::array<CacheConfig, kNumStrategies> caches;
  CommProfile profile;
  /// Per-epoch serial step tail that no pipeline depth can hide: the
  /// gradient ring-allreduce (needs every micro-batch's gradients) plus the
  /// optimizer update. Strategy-independent; used by the overlap-aware
  /// CostEstimate::Comparable() at pipeline_depth > 1.
  double train_fixed_seconds = 0.0;
  /// Extra per-epoch collective time of the canonical quantized layer-0
  /// backward (three double allreduces per step). Zero unless the wire codec
  /// is lossy and the model is multi-layer SAGE; charged to the strategies
  /// that run the quantized path (GDP, DNP) by EstimateCost.
  double quantized_sync_seconds = 0.0;
  double wall_seconds = 0.0;  ///< host time spent on the dry-run itself
};

DryRunResult DryRun(const Dataset& dataset, const ClusterSpec& cluster,
                    const std::vector<PartId>& partition, const EngineOptions& opts,
                    const ModelConfig& model);

/// Output dimension of the first (distributed) layer for the cost model.
std::int64_t Layer0OutDim(const ModelConfig& model);

}  // namespace apt
