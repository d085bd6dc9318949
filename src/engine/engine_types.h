// Shared types for the unified execution engine.
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.h"
#include "sampling/block.h"
#include "tensor/codec.h"

namespace apt {

/// How a global step's seed nodes are assigned to devices.
enum class SeedAssignment {
  kChunked,    ///< contiguous per-device chunks (GDP / NFP default)
  kPartition,  ///< each device takes the seeds in its graph partition
               ///< (SNP / DNP default, paper §3.2 cache-locality rule)
};

/// Recovery policy for injected (or real) collective faults; consumed by
/// ParallelTrainer::TrainEpoch. Disabled by default: without it a
/// CollectiveError propagates out of TrainEpoch unchanged.
struct RecoveryOptions {
  /// Retry a step whose collective failed, up to kMaxRetriesPerStep times
  /// (trainer.cpp), after a simulated exponential backoff.
  bool retry_collectives = false;
  /// If > 0: steps whose simulated duration exceeds this are counted as
  /// timeouts (fault.step_timeouts) — the re-planning layer's signal that
  /// the current strategy has degraded. Detection only; never aborts.
  double step_timeout_s = 0.0;
};

/// Cumulative recovery counters for one trainer (never reset).
struct RecoveryStats {
  std::int64_t collective_failures = 0;  ///< CollectiveErrors caught
  std::int64_t retries = 0;              ///< steps re-attempted
  std::int64_t giveups = 0;              ///< retry budget exhausted (rethrown)
  std::int64_t step_timeouts = 0;        ///< steps over step_timeout_s
};

struct EngineOptions {
  Strategy strategy = Strategy::kGDP;
  std::vector<int> fanouts = {10, 10, 10};
  std::int64_t batch_size_per_device = 1024;
  std::int64_t cache_bytes_per_device = 4LL << 30;
  SeedAssignment seed_assignment = SeedAssignment::kPartition;
  std::uint64_t sample_seed = 99;
  float learning_rate = 0.05f;
  /// Prototype of the paper's future-work HYBRID strategy (§5.2, §7): with
  /// strategy == kSNP, restrict source-node routing to devices of the SAME
  /// machine; sources owned by other machines are processed at the
  /// requesting device (GDP-style), so hidden embeddings never cross the
  /// inter-machine network. See bench/ablation_hybrid.
  bool hybrid_intra_machine = false;
  /// Pipelined execution: split every step into this many micro-batches and
  /// overlap their Shuffle/gather communication with compute on a per-device
  /// comm stream (SimContext::PipelinedStepScope). 1 = serial (today's
  /// behaviour). Purely a timing-model feature: model parameters are
  /// bit-identical at every depth (the arithmetic still runs serially).
  int pipeline_depth = 1;
  RecoveryOptions recovery;
  /// Wire codec for float-tensor collective payloads (shuffle/gather
  /// transfers), applied per TrafficClass by the Communicator: transfers
  /// charge compressed bytes, and lossy codecs round the boundary tensors in
  /// a fixed canonical order (DESIGN.md invariant 8) so quantized-GDP and
  /// quantized-DNP stay bit-identical to each other.
  Codec wire_codec = Codec::kIdentity;
  /// Storage codec for the FeatureStore: features live compressed at rest
  /// and in every cache tier (quantize-on-gather at the storage tier,
  /// dequantize at the consumer), shrinking load wire bytes and letting more
  /// rows fit in the same cache budget.
  Codec storage_codec = Codec::kIdentity;
  /// Codec for the gradient allreduce wire bytes. kDeltaBitmask is lossless
  /// (bitmap + packed nonzeros); lossy codecs here change BYTES only, never
  /// gradient values (documented modeling deviation, DESIGN.md).
  Codec grad_codec = Codec::kIdentity;
  /// Sampled execution, >= 1. Above 1 the trainer executes one step in
  /// every `scale_sample_period` for real (a PROBE — bit-identical to the
  /// same step of an unsampled run, because each step forks its own rng
  /// stream) and fast-forwards the rest by replaying the probe's recorded
  /// step tape through the virtual clocks. Loss/accuracy of fast-forwarded
  /// steps are extrapolated from the probe (flagged in
  /// EpochStats::steps_fast_forwarded and the aptperf report). At 1 every
  /// step runs for real and nothing is recorded.
  std::int64_t scale_sample_period = 1;
  /// If > 0: cap the number of steps per epoch (scale sweeps run a fixed
  /// step budget instead of the full multi-thousand-step epoch).
  std::int64_t max_steps_per_epoch = 0;
  /// Width of the online telemetry windows (obs/telemetry.h) the trainer
  /// records step / per-stage / per-device-busy series into, in SIMULATED
  /// seconds. <= 0 disables trainer telemetry. Telemetry never advances the
  /// virtual clocks: simulated results are bit-identical either way (the
  /// overhead bench gates this at exactly zero).
  double telemetry_window_s = 1e-3;

  /// Default assignment rule for a strategy (tests may override to compare
  /// strategies on identical mini-batches).
  static SeedAssignment DefaultAssignment(Strategy s) {
    return (s == Strategy::kSNP || s == Strategy::kDNP) ? SeedAssignment::kPartition
                                                        : SeedAssignment::kChunked;
  }
};

/// Per-device work for one global step.
struct DeviceBatch {
  SampledBatch sample;
  std::vector<std::int64_t> labels;  ///< one per seed
};

/// Result of one global step.
struct StepStats {
  double loss = 0.0;           ///< seed-weighted mean loss
  std::int64_t correct = 0;    ///< argmax hits over all seeds
  std::int64_t num_seeds = 0;
};

/// Result of one epoch (simulated seconds come from SimContext phases).
struct EpochStats {
  double loss = 0.0;
  double train_accuracy = 0.0;
  double sim_seconds = 0.0;    ///< stacked sum of the three phase maxima
  double wall_seconds = 0.0;   ///< true simulated wall clock (max device
                               ///< clock delta); <= sim_seconds because the
                               ///< stacked sum double-counts barrier waits
  double sample_seconds = 0.0; ///< incl. sampled-subgraph shuffles
  double load_seconds = 0.0;
  double train_seconds = 0.0;  ///< incl. hidden-embedding shuffles
  /// Collective busy + barrier-wait time (SimContext::CommMax deltas) inside
  /// the sample / train phases: the measured counterparts of the cost
  /// model's graph-shuffle and T_shuffle terms.
  double comm_sample_seconds = 0.0;
  double comm_train_seconds = 0.0;
  /// Sampled execution: how many of this epoch's steps ran for real (probes) vs
  /// were fast-forwarded from a probe's step tape. steps_fast_forwarded > 0
  /// marks loss/accuracy as EXTRAPOLATED (timing stays exact-model: every
  /// fast-forwarded step re-runs the charging math on the virtual clocks).
  std::int64_t steps_executed = 0;
  std::int64_t steps_fast_forwarded = 0;
};

}  // namespace apt
