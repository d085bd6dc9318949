// Sampled-execution parity suite (DESIGN.md "Sampled execution at scale").
//
// The invariant under test: fast-forwarding never changes trained
// parameters or charged seconds of the steps that DO run. Probe steps
// consume sequential mini-batch indices and fork their own rng streams, so
// probe j of a sampled run is bit-identical to step j of an unsampled run;
// fast-forwarded steps replay the last probe's step tape through the
// virtual clocks, so timing stays exact-model while loss/accuracy become
// EXTRAPOLATED (flagged via EpochStats::steps_fast_forwarded).
#include <gtest/gtest.h>

#include <cmath>

#include "core/error.h"
#include "engine/trainer.h"
#include "test_util.h"

namespace apt {
namespace {

using ::apt::testing::MakeTrainerWithOptions;
using ::apt::testing::MaxParamDiff;
using ::apt::testing::SmallDataset;

EngineOptions BaseOptions(Strategy strategy, int pipeline_depth = 1) {
  EngineOptions opts;
  opts.strategy = strategy;
  opts.fanouts = {4, 4};
  opts.batch_size_per_device = 8;
  opts.cache_bytes_per_device = 1 << 18;
  opts.seed_assignment = EngineOptions::DefaultAssignment(strategy);
  opts.pipeline_depth = pipeline_depth;
  return opts;
}

constexpr Strategy kAllStrategies[] = {Strategy::kGDP, Strategy::kNFP,
                                       Strategy::kSNP, Strategy::kDNP};

// Probe steps must be BIT-identical to the same steps of an unsampled run:
// a run with period 4 over 16 steps executes probes 0..3, which see exactly
// the mini-batches and rng streams of steps 0..3 of an unsampled run capped
// at 4 steps. Trained parameters therefore match exactly.
TEST(ScaleSampledTest, ProbesAreBitIdenticalToUnsampledRun) {
  const Dataset ds = SmallDataset(/*feature_dim=*/32, /*nodes=*/8000);
  const ClusterSpec cluster = SingleMachineCluster(4);
  for (const Strategy strategy : kAllStrategies) {
    SCOPED_TRACE(ToString(strategy));
    EngineOptions scale_opts = BaseOptions(strategy);
    scale_opts.scale_sample_period = 4;
    scale_opts.max_steps_per_epoch = 16;
    auto scale = MakeTrainerWithOptions(ds, cluster, scale_opts);
    const EpochStats scale_stats = scale->TrainEpoch(0);
    EXPECT_EQ(scale_stats.steps_executed, 4);
    EXPECT_EQ(scale_stats.steps_fast_forwarded, 12);

    EngineOptions ref_opts = BaseOptions(strategy);
    ref_opts.max_steps_per_epoch = 4;  // exactly the probes
    auto ref = MakeTrainerWithOptions(ds, cluster, ref_opts);
    const EpochStats ref_stats = ref->TrainEpoch(0);
    EXPECT_EQ(ref_stats.steps_executed, 4);
    EXPECT_EQ(ref_stats.steps_fast_forwarded, 0);

    EXPECT_EQ(MaxParamDiff(scale->model0(), ref->model0()), 0.0);
  }
}

// A one-step epoch at period 4 is exactly one recorded probe: it must be
// bit-identical to the unsampled run in params, loss, AND every charged
// second — recording a step tape must not perturb the clocks, pipelined or
// not.
TEST(ScaleSampledTest, RecordedProbeIsBitIdenticalToUnsampledRun) {
  const Dataset ds = SmallDataset(/*feature_dim=*/32, /*nodes=*/8000);
  const ClusterSpec cluster = SingleMachineCluster(4);
  for (const Strategy strategy : {Strategy::kGDP, Strategy::kSNP}) {
    for (const int depth : {1, 4}) {
      SCOPED_TRACE(std::string(ToString(strategy)) + " depth " + std::to_string(depth));
      EngineOptions sampled_opts = BaseOptions(strategy, depth);
      sampled_opts.scale_sample_period = 4;
      sampled_opts.max_steps_per_epoch = 1;
      auto sampled = MakeTrainerWithOptions(ds, cluster, sampled_opts);
      const EpochStats sampled_stats = sampled->TrainEpoch(0);

      EngineOptions plain_opts = BaseOptions(strategy, depth);
      plain_opts.max_steps_per_epoch = 1;
      auto plain = MakeTrainerWithOptions(ds, cluster, plain_opts);
      const EpochStats plain_stats = plain->TrainEpoch(0);

      EXPECT_EQ(sampled_stats.steps_executed, 1);
      EXPECT_EQ(sampled_stats.steps_fast_forwarded, 0);
      EXPECT_EQ(sampled_stats.loss, plain_stats.loss);
      EXPECT_EQ(sampled_stats.wall_seconds, plain_stats.wall_seconds);
      EXPECT_EQ(sampled_stats.sim_seconds, plain_stats.sim_seconds);
      for (DeviceId d = 0; d < cluster.num_devices(); ++d) {
        EXPECT_EQ(sampled->sim().Now(d), plain->sim().Now(d)) << "device " << d;
        for (int p = 0; p < kNumPhases; ++p) {
          const auto phase = static_cast<Phase>(p);
          EXPECT_EQ(sampled->sim().PhaseOf(d, phase), plain->sim().PhaseOf(d, phase));
          EXPECT_EQ(sampled->sim().CommOf(d, phase), plain->sim().CommOf(d, phase));
          EXPECT_EQ(sampled->sim().CommStreamOf(d, phase),
                    plain->sim().CommStreamOf(d, phase));
        }
      }
      EXPECT_EQ(MaxParamDiff(sampled->model0(), plain->model0()), 0.0);
    }
  }
}

// A sample period below 1 is a configuration error, not a silent period 1.
TEST(ScaleSampledTest, RejectsNonPositivePeriod) {
  const Dataset ds = SmallDataset(/*feature_dim=*/32, /*nodes=*/8000);
  for (const std::int64_t period : {0, -3}) {
    EngineOptions opts = BaseOptions(Strategy::kGDP);
    opts.scale_sample_period = period;
    EXPECT_THROW(MakeTrainerWithOptions(ds, SingleMachineCluster(4), opts), Error)
        << "period " << period;
  }
}

// Pipelined execution records kBeginPipelined/kEndPipelined ops; replaying
// them must preserve probe parity exactly like the depth-1 path.
TEST(ScaleSampledTest, ProbeParityHoldsUnderPipelining) {
  const Dataset ds = SmallDataset(/*feature_dim=*/32, /*nodes=*/8000);
  const ClusterSpec cluster = SingleMachineCluster(4);
  EngineOptions scale_opts = BaseOptions(Strategy::kSNP, /*pipeline_depth=*/4);
  scale_opts.scale_sample_period = 3;
  scale_opts.max_steps_per_epoch = 9;
  auto scale = MakeTrainerWithOptions(ds, cluster, scale_opts);
  const EpochStats scale_stats = scale->TrainEpoch(0);
  EXPECT_EQ(scale_stats.steps_executed, 3);
  EXPECT_EQ(scale_stats.steps_fast_forwarded, 6);

  EngineOptions ref_opts = BaseOptions(Strategy::kSNP, /*pipeline_depth=*/4);
  ref_opts.max_steps_per_epoch = 3;
  auto ref = MakeTrainerWithOptions(ds, cluster, ref_opts);
  ref->TrainEpoch(0);
  EXPECT_EQ(MaxParamDiff(scale->model0(), ref->model0()), 0.0);
}

// Without faults the cluster model is time-invariant, so replaying one
// probe's tape charges the same seconds the probe charged: an epoch of
// 1 probe + (S-1) fast-forwards costs S x (one-step epoch), up to float
// accumulation (clocks re-sync at every step's gradient barrier).
TEST(ScaleSampledTest, FastForwardReplaysTheProbesCharges) {
  const Dataset ds = SmallDataset(/*feature_dim=*/32, /*nodes=*/8000);
  const ClusterSpec cluster = SingleMachineCluster(4);
  const std::int64_t steps = 6;
  EngineOptions scale_opts = BaseOptions(Strategy::kGDP);
  scale_opts.scale_sample_period = 1000;  // 1 probe, 5 fast-forwards
  scale_opts.max_steps_per_epoch = steps;
  auto scale = MakeTrainerWithOptions(ds, cluster, scale_opts);
  const EpochStats scale_stats = scale->TrainEpoch(0);
  EXPECT_EQ(scale_stats.steps_executed, 1);
  EXPECT_EQ(scale_stats.steps_fast_forwarded, steps - 1);

  EngineOptions one_opts = BaseOptions(Strategy::kGDP);
  one_opts.max_steps_per_epoch = 1;
  auto one = MakeTrainerWithOptions(ds, cluster, one_opts);
  const EpochStats one_stats = one->TrainEpoch(0);

  const double expect = static_cast<double>(steps) * one_stats.wall_seconds;
  EXPECT_NEAR(scale_stats.wall_seconds, expect, 1e-9 * expect);
}

// The headline extrapolation bound (stated in DESIGN.md): on a config where
// the exact run is affordable, the sampled epoch's charged seconds land
// within 20% of the exact epoch's. Mini-batches differ across steps, so
// this is an accuracy bound, not an identity.
TEST(ScaleSampledTest, ExtrapolatedEpochTimeIsWithinBoundOfExactRun) {
  const Dataset ds = SmallDataset(/*feature_dim=*/32, /*nodes=*/8000);
  const ClusterSpec cluster = SingleMachineCluster(4);
  for (const Strategy strategy : kAllStrategies) {
    SCOPED_TRACE(ToString(strategy));
    EngineOptions scale_opts = BaseOptions(strategy);
    scale_opts.scale_sample_period = 4;
    scale_opts.max_steps_per_epoch = 16;
    auto scale = MakeTrainerWithOptions(ds, cluster, scale_opts);
    const EpochStats scale_stats = scale->TrainEpoch(0);

    EngineOptions exact_opts = BaseOptions(strategy);
    exact_opts.max_steps_per_epoch = 16;
    auto exact = MakeTrainerWithOptions(ds, cluster, exact_opts);
    const EpochStats exact_stats = exact->TrainEpoch(0);

    EXPECT_NEAR(scale_stats.wall_seconds, exact_stats.wall_seconds,
                0.20 * exact_stats.wall_seconds);
    EXPECT_NEAR(scale_stats.sim_seconds, exact_stats.sim_seconds,
                0.20 * exact_stats.sim_seconds);
  }
}

}  // namespace
}  // namespace apt
