// Property-based strategy equivalence: for RANDOM (graph, fanout,
// hidden-dim, cluster) configurations — not hand-picked shapes — GDP, NFP,
// SNP, and DNP trained on identical mini-batches produce the same loss and
// parameters: NFP bit for bit, SNP and DNP up to float32 reassociation.
// Each case derives every knob from a single seed, so a failure reproduces
// from the test name alone.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/random.h"
#include "test_util.h"

namespace apt {
namespace {

using ::apt::testing::ExpectStrategyParity;
using ::apt::testing::SmallDataset;

class PropertyEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PropertyEquivalence, RandomConfigMatchesGdp) {
  Rng rng(GetParam());
  // Draw a small but genuinely varied configuration. Bounds keep one case
  // under ~2s: <=1000 nodes, {3,3} fanouts, batch 64.
  const NodeId nodes = 400 + static_cast<NodeId>(rng.NextBelow(601));  // 400..1000
  const std::int64_t feature_dim = 8 << rng.NextBelow(3);              // 8/16/32
  const std::int64_t hidden = 4 << rng.NextBelow(3);                   // 4/8/16
  const int fanout = 2 + static_cast<int>(rng.NextBelow(3));           // 2..4
  const std::int32_t devices = 2 + static_cast<std::int32_t>(rng.NextBelow(3));
  const bool multi_machine = rng.NextBelow(2) == 1;

  const Dataset ds = SmallDataset(feature_dim, nodes, /*seed=*/GetParam());
  const ClusterSpec cluster = multi_machine
                                  ? MultiMachineCluster(2, devices)
                                  : SingleMachineCluster(2 * devices);
  SCOPED_TRACE("seed=" + std::to_string(GetParam()) + " nodes=" +
               std::to_string(nodes) + " d=" + std::to_string(feature_dim) +
               " h=" + std::to_string(hidden) + " f=" + std::to_string(fanout) +
               " c=" + std::to_string(2 * devices) +
               (multi_machine ? " multi" : " single"));
  ExpectStrategyParity(ds, cluster, {fanout, fanout}, /*batch=*/64, hidden);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyEquivalence,
                         ::testing::Range<std::uint64_t>(1000, 1020),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// Pipelined execution is purely a timing-model feature: the arithmetic still
// runs serially, so for EVERY strategy and EVERY depth the trained parameters
// must be BIT-identical (== 0, no tolerance) to the serial engine on the same
// random configuration — and overlap must never make the simulated epoch
// slower.
class PipelineDepthParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineDepthParity, EveryDepthBitExactAcrossStrategies) {
  Rng rng(GetParam());
  const NodeId nodes = 300 + static_cast<NodeId>(rng.NextBelow(301));  // 300..600
  const std::int64_t feature_dim = 8 << rng.NextBelow(2);              // 8/16
  const std::int64_t hidden = 4 << rng.NextBelow(2);                   // 4/8
  const int fanout = 2 + static_cast<int>(rng.NextBelow(2));           // 2..3
  const std::int32_t devices = 2 + static_cast<std::int32_t>(rng.NextBelow(2));
  const bool multi_machine = rng.NextBelow(2) == 1;

  const Dataset ds = SmallDataset(feature_dim, nodes, /*seed=*/GetParam());
  const ClusterSpec cluster = multi_machine
                                  ? MultiMachineCluster(2, devices)
                                  : SingleMachineCluster(2 * devices);
  SCOPED_TRACE("seed=" + std::to_string(GetParam()) + " nodes=" +
               std::to_string(nodes) + " d=" + std::to_string(feature_dim) +
               " h=" + std::to_string(hidden) + " f=" + std::to_string(fanout) +
               " c=" + std::to_string(2 * devices) +
               (multi_machine ? " multi" : " single"));
  for (Strategy s :
       {Strategy::kGDP, Strategy::kNFP, Strategy::kSNP, Strategy::kDNP}) {
    auto ref = apt::testing::MakeTrainer(ds, cluster, s, ModelKind::kSage,
                                         /*force_chunked=*/true, 1 << 18,
                                         {fanout, fanout}, /*batch=*/64, hidden);
    const EpochStats ref_stats = ref->TrainEpoch(0);
    for (int depth : {2, 4}) {
      auto piped = apt::testing::MakeTrainer(
          ds, cluster, s, ModelKind::kSage, /*force_chunked=*/true, 1 << 18,
          {fanout, fanout}, /*batch=*/64, hidden, /*recovery=*/{}, depth);
      const EpochStats piped_stats = piped->TrainEpoch(0);
      SCOPED_TRACE(std::string(ToString(s)) + " depth=" + std::to_string(depth));
      EXPECT_EQ(ref_stats.loss, piped_stats.loss);
      EXPECT_EQ(ref_stats.train_accuracy, piped_stats.train_accuracy);
      EXPECT_EQ(apt::testing::MaxParamDiff(ref->model0(), piped->model0()), 0.0);
      // Overlap can only hide communication, never add simulated time.
      EXPECT_LE(piped_stats.wall_seconds,
                ref_stats.wall_seconds * (1.0 + 1e-9) + 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineDepthParity,
                         ::testing::Range<std::uint64_t>(2000, 2020),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace apt
