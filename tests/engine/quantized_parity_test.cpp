// Quantized strategy equivalence: with a LOSSY wire codec (bf16 or int8),
// GDP and DNP still train BIT-identical models (loss EXPECT_EQ, MaxParamDiff
// == 0) on identical mini-batches, at every pipeline depth. This is the
// canonical-rounding-order guarantee (DESIGN.md invariant 8): boundary
// tensors are rounded exactly once at the producer, and the layer-0
// parameter gradient is accumulated on a power-of-two grid whose partial
// sums are exact in double — so the reduction is grouping-invariant and the
// two strategies' different row batchings cannot diverge.
//
// NFP/SNP ship dimension slices / partial aggregates instead of whole rows,
// so they keep the float path and match GDP only within a quantization
// tolerance. The identity codec must leave everything bit-identical to a
// codec-free build.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/random.h"
#include "test_util.h"

namespace apt {
namespace {

using ::apt::testing::MakeTrainer;
using ::apt::testing::MaxParamDiff;
using ::apt::testing::SmallDataset;

struct SeedConfig {
  Dataset ds;
  ClusterSpec cluster;
  int fanout;
  std::int64_t hidden;
};

SeedConfig DrawConfig(std::uint64_t seed) {
  Rng rng(seed);
  const NodeId nodes = 300 + static_cast<NodeId>(rng.NextBelow(301));  // 300..600
  const std::int64_t feature_dim = 8 << rng.NextBelow(2);              // 8/16
  const std::int64_t hidden = 4 << rng.NextBelow(2);                   // 4/8
  const int fanout = 2 + static_cast<int>(rng.NextBelow(2));           // 2..3
  const std::int32_t devices = 2 + static_cast<std::int32_t>(rng.NextBelow(2));
  const bool multi_machine = rng.NextBelow(2) == 1;
  SeedConfig cfg{SmallDataset(feature_dim, nodes, seed),
                 multi_machine ? MultiMachineCluster(2, devices)
                               : SingleMachineCluster(2 * devices),
                 fanout, hidden};
  return cfg;
}

class QuantizedParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuantizedParity, GdpDnpBitIdenticalUnderLossyCodecs) {
  const SeedConfig cfg = DrawConfig(GetParam());
  for (Codec codec : {Codec::kBf16, Codec::kInt8}) {
    EpochStats ref_stats;
    bool have_ref = false;
    for (int depth : {1, 2, 4}) {
      auto gdp = MakeTrainer(cfg.ds, cfg.cluster, Strategy::kGDP,
                             ModelKind::kSage, /*force_chunked=*/true, 1 << 18,
                             {cfg.fanout, cfg.fanout}, /*batch=*/64, cfg.hidden,
                             /*recovery=*/{}, depth, codec, codec, codec);
      auto dnp = MakeTrainer(cfg.ds, cfg.cluster, Strategy::kDNP,
                             ModelKind::kSage, /*force_chunked=*/true, 1 << 18,
                             {cfg.fanout, cfg.fanout}, /*batch=*/64, cfg.hidden,
                             /*recovery=*/{}, depth, codec, codec, codec);
      const EpochStats gdp_stats = gdp->TrainEpoch(0);
      const EpochStats dnp_stats = dnp->TrainEpoch(0);
      SCOPED_TRACE(std::string(ToString(codec)) + " depth=" +
                   std::to_string(depth));
      EXPECT_EQ(gdp_stats.loss, dnp_stats.loss);
      EXPECT_EQ(MaxParamDiff(gdp->model0(), dnp->model0()), 0.0);
      // Pipelining stays a pure timing-model feature under quantization.
      if (!have_ref) {
        ref_stats = gdp_stats;
        have_ref = true;
      } else {
        EXPECT_EQ(ref_stats.loss, gdp_stats.loss);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantizedParity,
                         ::testing::Range<std::uint64_t>(3000, 3020),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// NFP and SNP keep the standard float backward; their boundary traffic is
// charged compressed bytes but the partial sums are NOT grid-rounded, so
// they track quantized GDP only within a quantization-noise tolerance. NFP
// runs GDP's layer-0 kernels and equals GDP bit for bit under the identity
// wire codec; under a lossy one GDP takes the grid-rounded gradient path
// while NFP keeps the float one, which is what the tolerance absorbs.
class QuantizedSliceParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QuantizedSliceParity, NfpSnpTrackGdpWithinTolerance) {
  const SeedConfig cfg = DrawConfig(GetParam());
  for (Codec codec : {Codec::kBf16, Codec::kInt8}) {
    auto ref = MakeTrainer(cfg.ds, cfg.cluster, Strategy::kGDP, ModelKind::kSage,
                           /*force_chunked=*/true, 1 << 18,
                           {cfg.fanout, cfg.fanout}, /*batch=*/64, cfg.hidden,
                           /*recovery=*/{}, 1, codec, codec, codec);
    const EpochStats ref_stats = ref->TrainEpoch(0);
    // int8 injects up to maxabs/254 of absolute error per boundary element;
    // bf16 about 2^-9 relative. The bounds below absorb one epoch of that.
    const double loss_tol = codec == Codec::kInt8 ? 0.15 : 0.02;
    const double param_tol = codec == Codec::kInt8 ? 0.25 : 0.05;
    for (Strategy s : {Strategy::kNFP, Strategy::kSNP}) {
      auto alt = MakeTrainer(cfg.ds, cfg.cluster, s, ModelKind::kSage,
                             /*force_chunked=*/true, 1 << 18,
                             {cfg.fanout, cfg.fanout}, /*batch=*/64, cfg.hidden,
                             /*recovery=*/{}, 1, codec, codec, codec);
      const EpochStats alt_stats = alt->TrainEpoch(0);
      SCOPED_TRACE(std::string(ToString(codec)) + " " + ToString(s));
      EXPECT_NEAR(ref_stats.loss, alt_stats.loss, loss_tol);
      EXPECT_LT(MaxParamDiff(ref->model0(), alt->model0()), param_tol);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuantizedSliceParity,
                         ::testing::Range<std::uint64_t>(3000, 3005),
                         [](const ::testing::TestParamInfo<std::uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// The zero-compression path: explicitly passing the identity codec must be
// bit-identical to a build that never mentions codecs at all — for every
// strategy. This pins the invariant that codec plumbing is inert when off.
TEST(QuantizedParityIdentity, IdentityCodecIsBitInert) {
  const SeedConfig cfg = DrawConfig(/*seed=*/3042);
  for (Strategy s :
       {Strategy::kGDP, Strategy::kNFP, Strategy::kSNP, Strategy::kDNP}) {
    auto plain = MakeTrainer(cfg.ds, cfg.cluster, s, ModelKind::kSage,
                             /*force_chunked=*/true, 1 << 18,
                             {cfg.fanout, cfg.fanout}, /*batch=*/64, cfg.hidden);
    auto with_codec = MakeTrainer(
        cfg.ds, cfg.cluster, s, ModelKind::kSage, /*force_chunked=*/true,
        1 << 18, {cfg.fanout, cfg.fanout}, /*batch=*/64, cfg.hidden,
        /*recovery=*/{}, 1, Codec::kIdentity, Codec::kIdentity,
        Codec::kIdentity);
    const EpochStats a = plain->TrainEpoch(0);
    const EpochStats b = with_codec->TrainEpoch(0);
    SCOPED_TRACE(ToString(s));
    EXPECT_EQ(a.loss, b.loss);
    EXPECT_EQ(a.wall_seconds, b.wall_seconds);
    EXPECT_EQ(MaxParamDiff(plain->model0(), with_codec->model0()), 0.0);
  }
}

// Lossless gradient compression (delta+bitmask on the allreduce) never
// changes values — only wire bytes — so training is bit-identical to fp32.
TEST(QuantizedParityIdentity, DeltaGradCodecIsLossless) {
  const SeedConfig cfg = DrawConfig(/*seed=*/3043);
  auto plain = MakeTrainer(cfg.ds, cfg.cluster, Strategy::kGDP, ModelKind::kSage,
                           /*force_chunked=*/true, 1 << 18,
                           {cfg.fanout, cfg.fanout}, /*batch=*/64, cfg.hidden);
  auto delta = MakeTrainer(cfg.ds, cfg.cluster, Strategy::kGDP, ModelKind::kSage,
                           /*force_chunked=*/true, 1 << 18,
                           {cfg.fanout, cfg.fanout}, /*batch=*/64, cfg.hidden,
                           /*recovery=*/{}, 1, Codec::kIdentity,
                           Codec::kIdentity, Codec::kDeltaBitmask);
  const EpochStats a = plain->TrainEpoch(0);
  const EpochStats b = delta->TrainEpoch(0);
  EXPECT_EQ(a.loss, b.loss);
  EXPECT_EQ(MaxParamDiff(plain->model0(), delta->model0()), 0.0);
}

// End-task sanity: one epoch under bf16 lands close to the fp32 loss.
TEST(QuantizedParityIdentity, Bf16LossNearFp32) {
  const SeedConfig cfg = DrawConfig(/*seed=*/3044);
  auto fp32 = MakeTrainer(cfg.ds, cfg.cluster, Strategy::kGDP, ModelKind::kSage,
                          /*force_chunked=*/true, 1 << 18,
                          {cfg.fanout, cfg.fanout}, /*batch=*/64, cfg.hidden);
  auto bf16 = MakeTrainer(cfg.ds, cfg.cluster, Strategy::kGDP, ModelKind::kSage,
                          /*force_chunked=*/true, 1 << 18,
                          {cfg.fanout, cfg.fanout}, /*batch=*/64, cfg.hidden,
                          /*recovery=*/{}, 1, Codec::kBf16, Codec::kBf16,
                          Codec::kBf16);
  const EpochStats a = fp32->TrainEpoch(0);
  const EpochStats b = bf16->TrainEpoch(0);
  EXPECT_NEAR(a.loss, b.loss, 0.05);
}

}  // namespace
}  // namespace apt
