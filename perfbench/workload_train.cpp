// train_fig09 — the figure-bench training epoch (Figure 9's multi-machine
// cell), closed loop: ps_like at dataset scale 1.0 on 4 machines x 4 GPUs,
// 3-layer GraphSAGE with hidden 128, fanout [10,10,10], batch 128 per
// device, GPU cache = feature bytes / 16. Set-up runs APT's Prepare
// (multilevel partition) and Plan (dry-run + cost model) stages, then all
// four strategies train the same epochs. The graph is the fixed preset; the
// workload seed draws the mini-batch order and the neighbor samples, so that
// runs with different seeds do the same amount of host work.
#include "apt/adapter.h"
#include "apt/planner.h"
#include "partition/partitioner.h"
#include "training.h"

namespace perfbench {

namespace {

using namespace apt;

std::unique_ptr<TrainingRig> MakeFig09Rig(std::uint64_t seed) {
  auto rig = std::make_unique<TrainingRig>();
  const double t0 = Now();
  rig->dataset = MakeDataset(PsLikeParams(1.0));
  const double t1 = Now();
  const ClusterSpec cluster = MultiMachineCluster(4, 4);
  MultilevelPartitioner partitioner;
  const std::vector<PartId> partition =
      partitioner.Partition(rig->dataset.graph, cluster.num_devices());
  const double t2 = Now();

  ModelConfig model;
  model.kind = ModelKind::kSage;
  model.num_layers = 3;
  model.hidden_dim = 128;
  model.input_dim = rig->dataset.feature_dim();
  model.num_classes = rig->dataset.num_classes;
  EngineOptions opts;
  opts.fanouts = {10, 10, 10};
  opts.batch_size_per_device = 128;
  opts.cache_bytes_per_device = rig->dataset.FeatureBytes() / 16;
  opts.sample_seed = seed;
  const PlanReport plan = MakePlan(rig->dataset, cluster, partition, opts, model);
  const double t3 = Now();

  for (Strategy s : kAllStrategies) {
    if (s == plan.selected) rig->pick = rig->setups.size();
    rig->setups.push_back(
        BuildTrainerSetup(cluster, model, opts, partition, plan.dryrun, s));
    rig->setups.back().minibatch_seed = seed;
  }
  rig->BuildTrainers();
  rig->generate_s = t1 - t0;
  rig->partition_s = t2 - t1;
  rig->dryrun_s = t3 - t2;
  rig->total_s = Now() - t0;
  return rig;
}

}  // namespace

Result RunTrainFig09(const Args& args) {
  return RunTraining(args, MakeFig09Rig, /*setup_repeats=*/3, /*check_pairs=*/true);
}

}  // namespace perfbench
