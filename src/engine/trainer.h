// ParallelTrainer: drives one parallelization strategy end to end on the
// simulated cluster — the "Run" stage of APT's workflow.
//
// Owns the SimContext, communicator, feature store, and one model replica
// per device (PyTorch-DDP style). Each epoch steps through its
// EpochSchedule (the one the dry-run samples): sample each step's per-device
// seeds, execute the strategy's step, allreduce gradients, step the
// optimizer on every replica.
#pragma once

#include <memory>
#include <vector>

#include "comm/collectives.h"
#include "engine/engine_ctx.h"
#include "engine/engine_types.h"
#include "engine/exec_common.h"
#include "engine/executor.h"
#include "feature/cache_policy.h"
#include "feature/feature_store.h"
#include "graph/dataset.h"
#include "model/gnn_model.h"
#include "model/optimizer.h"
#include "sim/sim_context.h"

namespace apt {

struct TrainerSetup {
  ClusterSpec cluster;
  ModelConfig model;
  EngineOptions engine;
  std::vector<PartId> partition;          ///< node -> owning device
  CacheConfig cache;                      ///< from the adapter / cache policy
  std::vector<MachineId> feature_placement;  ///< node -> CPU-hosting machine
  std::uint64_t minibatch_seed = 777;
  /// Dry-run cost-model prediction of one epoch's comparable time
  /// (CostEstimate::Comparable(); filled by the adapter, 0 = no prediction).
  /// TrainEpoch compares it against the measured comparable time and
  /// publishes costmodel.* residual metrics.
  double predicted_comparable_seconds = 0.0;
};

class ParallelTrainer {
 public:
  ParallelTrainer(const Dataset& dataset, TrainerSetup setup);

  /// Trains one epoch; returns loss/accuracy plus the simulated-time
  /// breakdown for exactly this epoch (clocks are deltaed internally).
  EpochStats TrainEpoch(std::int64_t epoch);

  /// Mini-batched sampled inference accuracy with replica 0 (not timed).
  /// Rows come from the feature store (FeatureStore::Read), so evaluation
  /// sees the values training and serving see: procedural rows, and rows
  /// rounded by a lossy storage codec.
  double EvaluateAccuracy(std::span<const NodeId> nodes, std::uint64_t eval_seed = 5,
                          std::int64_t batch_size = 4096);

  /// Copies parameter values from `src` into every replica. Used when a
  /// recovery layer swaps strategies mid-training: the new trainer resumes
  /// from the old trainer's learned parameters (Sgd is stateless, so params
  /// are the entire training state).
  void LoadParams(GnnModel& src);

  /// Retry/timeout counters accumulated across all epochs so far.
  const RecoveryStats& recovery_stats() const { return recovery_stats_; }

  SimContext& sim() { return *sim_; }
  GnnModel& model0() { return *models_[0]; }
  /// Device `d`'s model replica (replicas stay in sync after every step).
  GnnModel& replica(DeviceId d) { return *models_[static_cast<std::size_t>(d)]; }
  const TrainerSetup& setup() const { return setup_; }
  /// Steps TrainEpoch runs, executed plus fast-forwarded (the schedule's).
  std::int64_t StepsPerEpoch() const { return Schedule(0).steps(); }

 private:
  /// Epoch `epoch`'s seeds and rng streams (engine/exec_common.h).
  EpochSchedule Schedule(std::int64_t epoch) const;

  const Dataset* dataset_;
  TrainerSetup setup_;
  std::unique_ptr<SimContext> sim_;
  std::unique_ptr<Communicator> comm_;
  std::unique_ptr<FeatureStore> store_;
  std::vector<std::unique_ptr<GnnModel>> models_;
  std::vector<std::unique_ptr<Optimizer>> optimizers_;
  EngineCtx ctx_;
  std::unique_ptr<StrategyExecutor> executor_;
  RecoveryStats recovery_stats_;
};

}  // namespace apt
