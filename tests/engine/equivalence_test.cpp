// The engine's core claim (paper Fig 6): GDP, NFP, SNP, and DNP are
// semantically equivalent — given identical mini-batches they produce the
// same trained model. NFP's column split lives in its charges only and its
// host runs GDP's step, so it trains GDP's bits exactly; SNP and DNP match
// up to floating-point reassociation.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "engine/pair_routing.h"
#include "model/param.h"
#include "sampling/neighbor_sampler.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "tensor/segment_ops.h"
#include "test_util.h"

namespace apt {
namespace {

using ::apt::testing::MakeTrainer;
using ::apt::testing::MaxParamDiff;
using ::apt::testing::SmallDataset;

/// Two epochs of `strategy` against GDP on one config: NFP must match
/// exactly, the others within float reassociation noise.
void ExpectMatchesGdpAfterTraining(Strategy strategy, ModelKind kind) {
  const Dataset ds = SmallDataset();
  const ClusterSpec cluster = SingleMachineCluster(4);
  auto ref = MakeTrainer(ds, cluster, Strategy::kGDP, kind);
  auto alt = MakeTrainer(ds, cluster, strategy, kind);
  const bool exact = strategy == Strategy::kNFP;
  for (int epoch = 0; epoch < 2; ++epoch) {
    const EpochStats a = ref->TrainEpoch(epoch);
    const EpochStats b = alt->TrainEpoch(epoch);
    if (exact) {
      EXPECT_EQ(a.loss, b.loss) << "epoch " << epoch;
    } else {
      EXPECT_NEAR(a.loss, b.loss, 1e-3) << "epoch " << epoch;
    }
  }
  if (exact) {
    EXPECT_EQ(MaxParamDiff(ref->model0(), alt->model0()), 0.0);
  } else {
    EXPECT_LT(MaxParamDiff(ref->model0(), alt->model0()), 2e-3);
  }
}

/// Every parameter of `a` and `b` holds the same bits.
void ExpectSameParamBits(GnnModel& a, GnnModel& b) {
  const auto pa = a.Params();
  const auto pb = b.Params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const Tensor& x = pa[i]->value;
    ASSERT_TRUE(x.SameShape(pb[i]->value)) << pa[i]->name;
    EXPECT_EQ(std::memcmp(x.data(), pb[i]->value.data(),
                          static_cast<std::size_t>(x.numel()) * sizeof(float)),
              0)
        << pa[i]->name;
  }
}

/// DDP invariant: after an epoch every device's replica is bitwise identical
/// (identical inits, identical summed updates), and a re-run of the same
/// config trains the same bits.
void ExpectReplicasStayIdentical(Strategy strategy) {
  const Dataset ds = SmallDataset();
  const ClusterSpec cluster = SingleMachineCluster(4);
  auto trainer = MakeTrainer(ds, cluster, strategy);
  trainer->TrainEpoch(0);
  for (DeviceId d = 1; d < cluster.num_devices(); ++d) {
    SCOPED_TRACE("device " + std::to_string(d));
    ExpectSameParamBits(trainer->replica(d), trainer->replica(0));
  }
  auto trainer2 = MakeTrainer(ds, cluster, strategy);
  trainer2->TrainEpoch(0);
  EXPECT_EQ(MaxParamDiff(trainer->model0(), trainer2->model0()), 0.0);
}

class EquivalenceTest : public ::testing::TestWithParam<Strategy> {};

TEST_P(EquivalenceTest, SageMatchesGdpAfterTraining) {
  ExpectMatchesGdpAfterTraining(GetParam(), ModelKind::kSage);
}

TEST_P(EquivalenceTest, GatMatchesGdpAfterTraining) {
  ExpectMatchesGdpAfterTraining(GetParam(), ModelKind::kGat);
}

TEST_P(EquivalenceTest, ReplicasStayIdenticalAcrossDevices) {
  ExpectReplicasStayIdentical(GetParam());
}

TEST(GdpEquivalenceTest, ReplicasStayIdenticalAcrossDevices) {
  ExpectReplicasStayIdentical(Strategy::kGDP);
}

TEST_P(EquivalenceTest, PartitionAssignmentAlsoConverges) {
  // With the strategy's native seed assignment (partition-based for
  // SNP/DNP), training still reduces the loss — the paper's accuracy-curve
  // sanity check, not an exactness check.
  const Dataset ds = SmallDataset();
  const ClusterSpec cluster = SingleMachineCluster(4);
  auto trainer = MakeTrainer(ds, cluster, GetParam(), ModelKind::kSage,
                             /*force_chunked=*/false);
  const EpochStats first = trainer->TrainEpoch(0);
  EpochStats last{};
  for (int epoch = 1; epoch < 4; ++epoch) last = trainer->TrainEpoch(epoch);
  EXPECT_LT(last.loss, first.loss);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, EquivalenceTest,
                         ::testing::Values(Strategy::kNFP, Strategy::kSNP,
                                           Strategy::kDNP),
                         [](const ::testing::TestParamInfo<Strategy>& info) {
                           return ToString(info.param);
                         });

// NFP trains GDP's bits where its column slices are most uneven: a feature
// dim below the device count (empty slices), two machines, serial and
// pipelined, identity and int8 feature storage, for both layer kinds.
TEST(NfpExactTest, MatchesGdpBitForBitOnEmptySlices) {
  const Dataset ds = SmallDataset(/*feature_dim=*/3, /*nodes=*/800);
  const ClusterSpec cluster = MultiMachineCluster(2, 2);
  for (ModelKind kind : {ModelKind::kSage, ModelKind::kGat}) {
    for (int depth : {1, 4}) {
      for (Codec storage : {Codec::kIdentity, Codec::kInt8}) {
        SCOPED_TRACE(std::string(ToString(kind)) + " depth " + std::to_string(depth) + " " +
                     ToString(storage));
        const auto make = [&](Strategy s) {
          return MakeTrainer(ds, cluster, s, kind, /*force_chunked=*/true, 1 << 18, {4, 4},
                             /*batch=*/64, /*hidden=*/0, /*recovery=*/{}, depth,
                             Codec::kIdentity, storage);
        };
        auto gdp = make(Strategy::kGDP);
        auto nfp = make(Strategy::kNFP);
        for (int epoch = 0; epoch < 2; ++epoch) {
          EXPECT_EQ(gdp->TrainEpoch(epoch).loss, nfp->TrainEpoch(epoch).loss) << "epoch " << epoch;
        }
        for (DeviceId d = 0; d < cluster.num_devices(); ++d) {
          SCOPED_TRACE("device " + std::to_string(d));
          ExpectSameParamBits(gdp->replica(d), nfp->replica(d));
        }
      }
    }
  }
}

// NFP trains GDP's bits on a dataset whose features are generated on demand,
// under lossy feature storage: every row is generated and rounded where the
// store serves it, for both layer kinds.
TEST(NfpExactTest, MatchesGdpBitForBitOnProceduralLossyStorage) {
  Dataset ds = SmallDataset(/*feature_dim=*/24, /*nodes=*/800);
  ds.procedural_feature_dim = ds.feature_dim();
  ds.procedural_feature_seed = 9;
  ds.features = Tensor();
  const ClusterSpec cluster = MultiMachineCluster(2, 2);
  for (ModelKind kind : {ModelKind::kSage, ModelKind::kGat}) {
    for (Codec storage : {Codec::kBf16, Codec::kInt8}) {
      SCOPED_TRACE(std::string(ToString(kind)) + " " + ToString(storage));
      const auto make = [&](Strategy s) {
        return MakeTrainer(ds, cluster, s, kind, /*force_chunked=*/true, 1 << 16, {4, 4},
                           /*batch=*/64, /*hidden=*/0, /*recovery=*/{}, /*pipeline_depth=*/1,
                           Codec::kIdentity, storage);
      };
      auto gdp = make(Strategy::kGDP);
      auto nfp = make(Strategy::kNFP);
      for (int epoch = 0; epoch < 2; ++epoch) {
        EXPECT_EQ(gdp->TrainEpoch(epoch).loss, nfp->TrainEpoch(epoch).loss) << "epoch " << epoch;
      }
      for (DeviceId d = 0; d < cluster.num_devices(); ++d) {
        SCOPED_TRACE("device " + std::to_string(d));
        ExpectSameParamBits(gdp->replica(d), nfp->replica(d));
      }
    }
  }
}

/// Columns [lo, hi) of x (rows [lo, hi) when `rows`), as a new tensor.
Tensor SliceOf(const Tensor& x, std::int64_t lo, std::int64_t hi, bool rows) {
  Tensor out = rows ? Tensor(hi - lo, x.cols()) : Tensor(x.rows(), hi - lo);
  for (std::int64_t r = 0; r < out.rows(); ++r) {
    for (std::int64_t j = 0; j < out.cols(); ++j) {
      out.row(r)[j] = rows ? x.row(lo + r)[j] : x.row(r)[lo + j];
    }
  }
  return out;
}

float MaxAbs(const Tensor& x) { return MaxAbsDiff(x, Tensor(x.rows(), x.cols())); }

// The identity NFP's column split rests on, executed: over SliceBounds(d, c)
// slices of a sampled block's real input rows,
//   SAGE: sum_g SpmmMean(H[:, g]) W[g, :] == SpmmMean(H) W,
//   GAT projection: sum_g H[:, g] W[g, :] == H W,
// up to float reassociation: every element within kRelTol of the largest
// full-width output magnitude. Uneven slices (d % c != 0) and c > d (empty
// slices, which must contribute nothing) are covered.
TEST(NfpSliceIdentityTest, SlicePartialsSumToFullWidthLayer) {
  constexpr float kRelTol = 1e-5f;
  constexpr std::int64_t kOut = 6;
  for (std::int64_t d : {10, 37}) {
    const Dataset ds = SmallDataset(d, /*nodes=*/800);
    const NeighborSampler sampler(ds.graph, {5});
    std::vector<NodeId> seeds;
    for (NodeId s = 0; s < 64; ++s) seeds.push_back(3 * s);
    Rng rng(7);
    const SampledBatch batch = sampler.Sample(seeds, rng);
    const Block& b = batch.blocks.front();
    const std::vector<std::int64_t> rows(b.src_nodes.begin(), b.src_nodes.end());
    Tensor h(b.num_src(), d);
    GatherRows(ds.features, rows, h);
    Tensor w(d, kOut);
    XavierUniform(w, rng);

    Tensor agg(b.num_dst, d);
    SpmmMean(b.csr(), h, agg);
    Tensor sage_want(b.num_dst, kOut);
    Matmul(agg, w, sage_want);
    Tensor gat_want(b.num_src(), kOut);
    Matmul(h, w, gat_want);
    for (std::int32_t c : {3, 4, 16}) {
      SCOPED_TRACE("d " + std::to_string(d) + " c " + std::to_string(c));
      const std::vector<std::int64_t> bounds = SliceBounds(d, c);
      ASSERT_EQ(bounds.back(), d);
      Tensor sage_got(b.num_dst, kOut);
      Tensor gat_got(b.num_src(), kOut);
      int empty = 0;
      for (std::size_t g = 0; g + 1 < bounds.size(); ++g) {
        const std::int64_t lo = bounds[g], hi = bounds[g + 1];
        if (lo == hi) {
          ++empty;
          continue;
        }
        const Tensor hg = SliceOf(h, lo, hi, /*rows=*/false);
        const Tensor wg = SliceOf(w, lo, hi, /*rows=*/true);
        Tensor agg_g(b.num_dst, hi - lo);
        SpmmMean(b.csr(), hg, agg_g);
        Matmul(agg_g, wg, sage_got, 1.0f, 1.0f);
        Matmul(hg, wg, gat_got, 1.0f, 1.0f);
      }
      EXPECT_EQ(empty, c > d ? c - d : 0);
      EXPECT_LE(MaxAbsDiff(sage_got, sage_want), kRelTol * MaxAbs(sage_want));
      EXPECT_LE(MaxAbsDiff(gat_got, gat_want), kRelTol * MaxAbs(gat_want));
    }
  }
}

}  // namespace
}  // namespace apt
