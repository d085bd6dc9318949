// The traced run's training loop: ParallelTrainer's constructor and epoch
// loop restated from the engine's public functions, with a span around each
// call into a layer. It runs the same arithmetic in the same order, so its
// losses and simulated seconds must equal the library trainer's bit for bit;
// the workloads check that, which also catches this copy drifting from the
// library. Fault retries, telemetry and the flight recorder are left out:
// the benchmark injects no faults and none of them moves a simulated clock.
#pragma once

#include <memory>
#include <vector>

#include "compat.h"
#include "engine/executor.h"
#include "engine/trainer.h"

namespace perfbench {

class MirrorTrainer {
 public:
  MirrorTrainer(const apt::Dataset& dataset, apt::TrainerSetup setup);

  /// One epoch; spans: step > {sampling.sample, engine.executor_step,
  /// comm.allreduce, model.optimizer}, with engine.probe_step between step
  /// and its layers under sampled execution and comm.fast_forward as the
  /// only child of a fast-forwarded step.
  apt::EpochStats TrainEpoch(std::int64_t epoch);

  /// Model flops (GnnModel::StepFlops over every device's blocks) of the
  /// executed steps so far.
  double flops() const { return flops_; }
  std::int64_t steps() const { return steps_; }

 private:
  const apt::Dataset* dataset_;
  apt::TrainerSetup setup_;
  std::unique_ptr<apt::SimContext> sim_;
  std::unique_ptr<apt::Communicator> comm_;
  std::unique_ptr<apt::FeatureStore> store_;
  std::vector<std::unique_ptr<apt::GnnModel>> models_;
  std::vector<std::unique_ptr<apt::Optimizer>> optimizers_;
  std::unique_ptr<apt::MinibatchPlan> plan_;
  apt::EngineCtx ctx_;
  std::unique_ptr<apt::StrategyExecutor> executor_;
  double flops_ = 0.0;
  std::int64_t steps_ = 0;
};

}  // namespace perfbench
