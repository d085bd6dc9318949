// The closed-loop training loop shared by train_fig09 and scale_xl1000:
// a rig (dataset + one trainer per strategy) is set up several times, then
// every strategy trains one epoch per round until the time budget is spent.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common.h"
#include "engine/trainer.h"

namespace perfbench {

struct TrainingRig {
  apt::Dataset dataset;
  std::vector<apt::TrainerSetup> setups;  ///< one per strategy trained
  /// Library trainers over `dataset`, one per setup. The rig is heap-held
  /// and never moves: every trainer keeps a pointer to `dataset`.
  std::vector<std::unique_ptr<apt::ParallelTrainer>> trainers;
  std::size_t pick = 0;  ///< setups index of the planner's pick
  /// Throughput counts simulated steps instead of seeds trained.
  bool count_steps = false;
  /// Host seconds of each set-up stage (0 where the workload has none).
  double generate_s = 0.0;
  double partition_s = 0.0;
  double dryrun_s = 0.0;
  double build_s = 0.0;
  double total_s = 0.0;

  void BuildTrainers();
};

using RigFactory = std::function<std::unique_ptr<TrainingRig>(std::uint64_t seed)>;

/// Runs one workload: set-up `setup_repeats` times, then measure (args.trace
/// selects the untraced or the traced run). `check_pairs` asserts that GDP
/// and NFP, and SNP and DNP, train bit-identical losses.
Result RunTraining(const Args& args, const RigFactory& make_rig, int setup_repeats,
                   bool check_pairs);

}  // namespace perfbench
