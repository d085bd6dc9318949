// Shared fixtures and helpers for the APT test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "apt/dryrun.h"
#include "engine/trainer.h"
#include "feature/cache_policy.h"
#include "graph/dataset.h"
#include "partition/partitioner.h"
#include "sim/hardware.h"
#include "tensor/ops.h"

namespace apt::testing {

/// A small, fast dataset for engine tests (learnable, community-structured).
inline Dataset SmallDataset(std::int64_t feature_dim = 32, NodeId nodes = 2000,
                            std::uint64_t seed = 3) {
  DatasetParams p;
  p.name = "test";
  p.num_nodes = nodes;
  p.num_edges = nodes * 8;
  p.feature_dim = feature_dim;
  p.num_classes = 6;
  p.num_communities = 6;
  p.zipf_exponent = 0.7;
  p.intra_prob = 0.85;
  p.seed = seed;
  return MakeDataset(p);
}

/// Builds a trainer for `strategy` with the full Plan-derived cache config.
/// `force_chunked` pins the seed assignment so different strategies consume
/// identical mini-batches (the precondition of exact equivalence checks).
inline std::unique_ptr<ParallelTrainer> MakeTrainer(
    const Dataset& ds, const ClusterSpec& cluster, Strategy strategy,
    ModelKind kind = ModelKind::kSage, bool force_chunked = true,
    std::int64_t cache_bytes = 1 << 20, std::vector<int> fanouts = {5, 5},
    std::int64_t batch = 128, std::int64_t hidden = 0,
    RecoveryOptions recovery = {}, int pipeline_depth = 1,
    Codec wire_codec = Codec::kIdentity, Codec storage_codec = Codec::kIdentity,
    Codec grad_codec = Codec::kIdentity) {
  ModelConfig model;
  model.kind = kind;
  model.num_layers = static_cast<int>(fanouts.size());
  model.hidden_dim = hidden > 0 ? hidden : (kind == ModelKind::kGat ? 4 : 16);
  model.gat_heads = 2;
  model.input_dim = ds.feature_dim();
  model.num_classes = ds.num_classes;

  EngineOptions opts;
  opts.strategy = strategy;
  opts.fanouts = std::move(fanouts);
  opts.batch_size_per_device = batch;
  opts.cache_bytes_per_device = cache_bytes;
  opts.seed_assignment = force_chunked ? SeedAssignment::kChunked
                                       : EngineOptions::DefaultAssignment(strategy);
  opts.recovery = recovery;
  opts.pipeline_depth = pipeline_depth;
  opts.wire_codec = wire_codec;
  opts.storage_codec = storage_codec;
  opts.grad_codec = grad_codec;

  MultilevelPartitioner part;
  std::vector<PartId> partition = part.Partition(ds.graph, cluster.num_devices());
  const DryRunResult dry = DryRun(ds, cluster, partition, opts, model);

  TrainerSetup setup;
  setup.cluster = cluster;
  setup.model = model;
  setup.engine = opts;
  setup.partition = std::move(partition);
  setup.cache = dry.caches[static_cast<std::size_t>(strategy)];
  setup.feature_placement = FeaturePlacementFromPartition(setup.partition, cluster);
  return std::make_unique<ParallelTrainer>(ds, std::move(setup));
}

/// As MakeTrainer, but driven by a fully caller-specified EngineOptions —
/// the sampled-execution suites tweak sampling periods / step caps
/// that the positional MakeTrainer signature doesn't expose. The model is
/// derived the same way (Sage, hidden 16 unless overridden).
inline std::unique_ptr<ParallelTrainer> MakeTrainerWithOptions(
    const Dataset& ds, const ClusterSpec& cluster, EngineOptions opts,
    std::int64_t hidden = 0, ModelKind kind = ModelKind::kSage) {
  ModelConfig model;
  model.kind = kind;
  model.num_layers = static_cast<int>(opts.fanouts.size());
  model.hidden_dim = hidden > 0 ? hidden : (kind == ModelKind::kGat ? 4 : 16);
  model.gat_heads = 2;
  model.input_dim = ds.feature_dim();
  model.num_classes = ds.num_classes;

  MultilevelPartitioner part;
  std::vector<PartId> partition = part.Partition(ds.graph, cluster.num_devices());
  const DryRunResult dry = DryRun(ds, cluster, partition, opts, model);

  TrainerSetup setup;
  setup.cluster = cluster;
  setup.model = model;
  setup.engine = opts;
  setup.partition = std::move(partition);
  setup.cache = dry.caches[static_cast<std::size_t>(opts.strategy)];
  setup.feature_placement = FeaturePlacementFromPartition(setup.partition, cluster);
  return std::make_unique<ParallelTrainer>(ds, std::move(setup));
}

/// Max absolute parameter difference between two trained replicas.
inline double MaxParamDiff(GnnModel& a, GnnModel& b) {
  const auto pa = a.Params();
  const auto pb = b.Params();
  EXPECT_EQ(pa.size(), pb.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < std::min(pa.size(), pb.size()); ++i) {
    worst = std::max(worst,
                     static_cast<double>(MaxAbsDiff(pa[i]->value, pb[i]->value)));
  }
  return worst;
}

/// The Fig 6 strategy-equivalence property on one configuration: NFP, SNP,
/// and DNP trained on IDENTICAL mini-batches (chunked assignment) match GDP
/// after `epochs` epochs. NFP runs GDP's layer-0 kernels, so its loss and
/// parameters must be equal; SNP and DNP reassociate float32 sums, so they
/// match GDP's loss within `loss_tol` and parameters within `param_tol`.
inline void ExpectStrategyParity(const Dataset& ds, const ClusterSpec& cluster,
                                 std::vector<int> fanouts, std::int64_t batch,
                                 std::int64_t hidden, int epochs = 1,
                                 double loss_tol = 1e-3, double param_tol = 2e-3) {
  auto ref = MakeTrainer(ds, cluster, Strategy::kGDP, ModelKind::kSage,
                         /*force_chunked=*/true, 1 << 18, fanouts, batch, hidden);
  std::vector<EpochStats> ref_stats;
  for (int e = 0; e < epochs; ++e) ref_stats.push_back(ref->TrainEpoch(e));
  for (Strategy s : {Strategy::kNFP, Strategy::kSNP, Strategy::kDNP}) {
    auto alt = MakeTrainer(ds, cluster, s, ModelKind::kSage,
                           /*force_chunked=*/true, 1 << 18, fanouts, batch, hidden);
    const bool exact = s == Strategy::kNFP;
    for (int e = 0; e < epochs; ++e) {
      const double want = ref_stats[static_cast<std::size_t>(e)].loss;
      const double got = alt->TrainEpoch(e).loss;
      if (exact) {
        EXPECT_EQ(want, got) << ToString(s) << " epoch " << e;
      } else {
        EXPECT_NEAR(want, got, loss_tol) << ToString(s) << " epoch " << e;
      }
    }
    const double diff = MaxParamDiff(ref->model0(), alt->model0());
    if (exact) {
      EXPECT_EQ(diff, 0.0) << ToString(s);
    } else {
      EXPECT_LT(diff, param_tol) << ToString(s);
    }
  }
}

/// True when `matmul` (C = A B at alpha 1, beta 0) fuses multiply-adds:
/// the second product of 1*(-1) + (1+2^-12)^2 keeps its 2^-24 bit only
/// under a fused update. The 9 x 27 output spans a full widest register
/// tile (8 x 16), the 8-wide column step, the scalar rim columns and a
/// one-row partial tile. Every element must come out the same, so which
/// half of a golden table applies never depends on a shape's n % 16; a
/// disagreement fails the calling test.
template <typename MatmulFn>
bool GemmFusesMultiplyAdd(MatmulFn matmul) {
  const float e = 1.0f + 0x1p-12f;
  const std::int64_t m = 9, n = 27;
  Tensor a(m, 2), b(2, n), c(m, n);
  for (std::int64_t r = 0; r < m; ++r) {
    a(r, 0) = 1.0f;
    a(r, 1) = e;
  }
  for (std::int64_t j = 0; j < n; ++j) {
    b(0, j) = -1.0f;
    b(1, j) = e;
  }
  matmul(a, b, c);
  const float first = c(0, 0);
  EXPECT_TRUE(first == 0x1p-11f || first == 0x1p-11f + 0x1p-24f) << first;
  for (std::int64_t r = 0; r < m; ++r) {
    for (std::int64_t j = 0; j < n; ++j) {
      EXPECT_EQ(c(r, j), first) << "GEMM tiles disagree on fusion at (" << r << ", " << j << ")";
    }
  }
  return first != 0x1p-11f;
}

/// The probe on the library's Matmul, the path every executor GEMM takes.
inline bool GemmFusesMultiplyAdd() {
  return GemmFusesMultiplyAdd([](const Tensor& a, const Tensor& b, Tensor& c) { Matmul(a, b, c); });
}

}  // namespace apt::testing
