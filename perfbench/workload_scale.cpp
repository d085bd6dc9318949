// scale_xl1000 — scale mode's bookkeeping-bound shape, closed loop: RMAT-18
// (262k nodes) with procedural dim-64 features on 100 machines x 10 GPUs,
// batch 16 per device, fanout [10,10], 2-layer GraphSAGE with hidden 32,
// modulo partition, cold cache, sampled execution with one probe step in 16
// and pipeline depth 4, 16 steps per epoch; GDP and SNP as in scale_sweep.
// Features and hidden layer are narrower than scale_sweep's (256 / 128):
// at that width one probe step of 1000 devices takes ~14 s on a 4-core x86
// machine and the process peaks at 3.6 GB, which a benchmark run cannot
// afford. The planner is not run
// at this scale, so the rig has no partition or dry-run stage.
#include "compat.h"
#include "graph/generators.h"
#include "training.h"

namespace perfbench {

namespace {

using namespace apt;

constexpr int kRmatScale = 18;
constexpr EdgeId kRmatEdges = EdgeId{1} << 22;
constexpr std::int64_t kFeatureDim = 64;
constexpr std::int64_t kNumClasses = 16;

std::unique_ptr<TrainingRig> MakeXl1000Rig(std::uint64_t seed) {
  auto rig = std::make_unique<TrainingRig>();
  rig->count_steps = true;
  const double t0 = Now();
  Dataset& ds = rig->dataset;
  ds.name = "rmat18";
  ds.graph = Rmat(kRmatScale, kRmatEdges, 0.57, 0.19, 0.19, Rng(seed));
  ds.num_classes = kNumClasses;
  ds.procedural_feature_dim = kFeatureDim;
  ds.procedural_feature_seed = seed ^ 0xA77EA57ULL;
  const NodeId n = ds.graph.num_nodes();
  ds.labels.resize(static_cast<std::size_t>(n));
  ds.train_nodes.resize(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    ds.labels[static_cast<std::size_t>(v)] = static_cast<std::int64_t>(
        Rng(seed ^ static_cast<std::uint64_t>(v)).NextBelow(kNumClasses));
    ds.train_nodes[static_cast<std::size_t>(v)] = v;
  }
  const double t1 = Now();

  const ClusterSpec cluster = MultiMachineCluster(100, 10);
  const std::int32_t devices = cluster.num_devices();
  ModelConfig model;
  model.kind = ModelKind::kSage;
  model.num_layers = 2;
  model.hidden_dim = 32;
  model.input_dim = kFeatureDim;
  model.num_classes = kNumClasses;
  for (Strategy s : {Strategy::kGDP, Strategy::kSNP}) {
    TrainerSetup setup;
    setup.cluster = cluster;
    setup.model = model;
    setup.engine.strategy = s;
    setup.engine.fanouts = {10, 10};
    setup.engine.batch_size_per_device = 16;
    setup.engine.cache_bytes_per_device = 0;
    setup.engine.seed_assignment = EngineOptions::DefaultAssignment(s);
    setup.engine.max_steps_per_epoch = 16;
    setup.engine.pipeline_depth = 4;
    EnableSampledExecution(setup.engine, 16);
    setup.partition.resize(static_cast<std::size_t>(n));
    for (NodeId v = 0; v < n; ++v) {
      setup.partition[static_cast<std::size_t>(v)] = static_cast<PartId>(v % devices);
    }
    setup.cache.cache_nodes.resize(static_cast<std::size_t>(devices));
    setup.cache.bytes_per_cached_row = kFeatureDim * 4;
    setup.feature_placement = FeaturePlacementFromPartition(setup.partition, cluster);
    rig->setups.push_back(std::move(setup));
  }
  rig->BuildTrainers();
  rig->generate_s = t1 - t0;
  rig->total_s = Now() - t0;
  return rig;
}

}  // namespace

Result RunScaleXl1000(const Args& args) {
  return RunTraining(args, MakeXl1000Rig, /*setup_repeats=*/3, /*check_pairs=*/false);
}

}  // namespace perfbench
