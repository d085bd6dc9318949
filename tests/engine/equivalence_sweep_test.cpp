// Property-style equivalence sweep: the strategy-equivalence invariant must
// hold across device counts, layer counts, feature dims, and cluster shapes
// — not just the single configuration of equivalence_test.cpp.
#include <gtest/gtest.h>

#include "tensor/ops.h"
#include "test_util.h"

namespace apt {
namespace {

using ::apt::testing::MakeTrainer;
using ::apt::testing::MaxParamDiff;
using ::apt::testing::SmallDataset;

struct SweepParam {
  std::int32_t devices;
  std::int32_t machines;  // 1 => single machine
  int layers;
  std::int64_t feature_dim;

  std::string Name() const {
    return "c" + std::to_string(devices) + "_m" + std::to_string(machines) + "_l" +
           std::to_string(layers) + "_d" + std::to_string(feature_dim);
  }
};

class EquivalenceSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(EquivalenceSweep, AllStrategiesMatchGdp) {
  const SweepParam p = GetParam();
  const Dataset ds = SmallDataset(p.feature_dim, /*nodes=*/1500);
  const ClusterSpec cluster =
      p.machines == 1 ? SingleMachineCluster(p.devices)
                      : MultiMachineCluster(p.machines, p.devices / p.machines);
  std::vector<int> fanouts(static_cast<std::size_t>(p.layers), 4);
  auto ref = MakeTrainer(ds, cluster, Strategy::kGDP, ModelKind::kSage,
                         /*force_chunked=*/true, 1 << 18, fanouts, 64);
  const EpochStats ref_stats = ref->TrainEpoch(0);
  for (Strategy s : {Strategy::kNFP, Strategy::kSNP, Strategy::kDNP}) {
    auto alt = MakeTrainer(ds, cluster, s, ModelKind::kSage,
                           /*force_chunked=*/true, 1 << 18, fanouts, 64);
    const EpochStats alt_stats = alt->TrainEpoch(0);
    if (s == Strategy::kNFP) {  // GDP's layer-0 kernels: exact
      EXPECT_EQ(ref_stats.loss, alt_stats.loss);
      EXPECT_EQ(MaxParamDiff(ref->model0(), alt->model0()), 0.0);
      continue;
    }
    EXPECT_NEAR(ref_stats.loss, alt_stats.loss, 1e-3) << ToString(s);
    EXPECT_LT(MaxParamDiff(ref->model0(), alt->model0()), 2e-3) << ToString(s);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EquivalenceSweep,
    ::testing::Values(SweepParam{2, 1, 2, 32},   // minimal device count
                      SweepParam{3, 1, 2, 32},   // odd C: uneven dim slices
                      SweepParam{8, 1, 2, 32},   // wide single machine
                      SweepParam{4, 2, 2, 32},   // cross-machine collectives
                      SweepParam{4, 1, 1, 32},   // single layer (= layer 0 only)
                      SweepParam{4, 1, 3, 32},   // deep stack
                      SweepParam{4, 1, 2, 13}),  // dim not divisible by C
    [](const ::testing::TestParamInfo<SweepParam>& info) { return info.param.Name(); });

}  // namespace
}  // namespace apt
