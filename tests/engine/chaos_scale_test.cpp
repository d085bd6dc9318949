// Chaos-at-scale regression tests: FaultPlan semantics must fire
// identically under sampled execution. Fast-forwarded steps replay the
// probe's tape through the REAL charging code, so wire-byte
// collective-failure thresholds, straggler inflation, and barrier poisoning
// behave exactly as in live execution — and a giveup mid-fast-forward still
// leaves a parseable flight dump whose step events carry the fast_forward
// flag.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "comm/collectives.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "sim/fault.h"
#include "test_util.h"

namespace apt {
namespace {

using ::apt::testing::MakeTrainerWithOptions;
using ::apt::testing::MaxParamDiff;
using ::apt::testing::SmallDataset;

std::int64_t ScaleCounter(const char* name) {
  return obs::Metrics::Global().counter(name).Get();
}

/// Sampled-execution options: probe step 0 only, fast-forward the
/// remaining 7 steps of the epoch. One step of this config moves ~10KB of
/// collective wire bytes, so an `after_bytes` threshold in the tens of KB
/// fires while the epoch is fast-forwarding, not during the probe.
EngineOptions ScaleChaosOptions(RecoveryOptions recovery = {}) {
  EngineOptions opts;
  opts.strategy = Strategy::kGDP;
  opts.fanouts = {4, 4};
  opts.batch_size_per_device = 8;
  opts.cache_bytes_per_device = 1 << 18;
  opts.seed_assignment = SeedAssignment::kChunked;
  opts.recovery = recovery;
  opts.scale_sample_period = 1000;
  opts.max_steps_per_epoch = 8;
  return opts;
}

std::unique_ptr<ParallelTrainer> ScaleChaosTrainer(const Dataset& ds,
                                                   const FaultPlan& plan,
                                                   RecoveryOptions recovery = {}) {
  auto trainer = MakeTrainerWithOptions(ds, SingleMachineCluster(4),
                                        ScaleChaosOptions(recovery));
  trainer->sim().InstallFaults(plan);
  return trainer;
}

TEST(ChaosScaleTest, CollectiveFailureDuringFastForwardIsRetriedToTheSameModel) {
  const Dataset ds = SmallDataset(/*feature_dim=*/32, /*nodes=*/8000);
  auto clean = ScaleChaosTrainer(ds, FaultPlan{});

  // Fires a few fast-forwarded steps in (cumulative wire bytes cross the
  // threshold mid-replay). The failed replay consumed the threshold, so the
  // retry replays clean — same semantics as a live retry.
  FaultPlan plan;
  plan.collectives.push_back({.after_bytes = 30000});
  RecoveryOptions recovery;
  recovery.retry_collectives = true;
  const std::int64_t attempts0 = ScaleCounter("retry.collective.attempts");
  auto chaotic = ScaleChaosTrainer(ds, plan, recovery);

  const EpochStats a = clean->TrainEpoch(0);
  const EpochStats b = chaotic->TrainEpoch(0);
  EXPECT_DOUBLE_EQ(a.loss, b.loss);
  EXPECT_EQ(MaxParamDiff(clean->model0(), chaotic->model0()), 0.0);
  EXPECT_GT(b.sim_seconds, a.sim_seconds);  // the failure + backoff cost time
  EXPECT_EQ(b.steps_fast_forwarded, 7);
  EXPECT_GE(ScaleCounter("retry.collective.attempts") - attempts0, 1);
  EXPECT_GE(chaotic->recovery_stats().retries, 1);
  EXPECT_GE(chaotic->sim().FaultsObserved(), 1);
}

TEST(ChaosScaleTest, StragglerInflatesFastForwardedTimeButNotParams) {
  const Dataset ds = SmallDataset(/*feature_dim=*/32, /*nodes=*/8000);
  auto clean = ScaleChaosTrainer(ds, FaultPlan{});

  // Active for the whole run: every fast-forwarded replay must re-evaluate
  // the straggler at the replay-time clocks and charge the inflated time.
  FaultPlan plan;
  plan.stragglers.push_back(
      {.device = 2, .start_s = 0.0, .end_s = 1e9, .slowdown = 4.0});
  auto chaotic = ScaleChaosTrainer(ds, plan);

  const EpochStats a = clean->TrainEpoch(0);
  const EpochStats b = chaotic->TrainEpoch(0);
  EXPECT_DOUBLE_EQ(a.loss, b.loss);
  EXPECT_EQ(MaxParamDiff(clean->model0(), chaotic->model0()), 0.0);
  EXPECT_EQ(b.steps_fast_forwarded, a.steps_fast_forwarded);
  // The inflation must scale with the fast-forwarded fraction, not just the
  // probe: 7 of 8 steps replay under the straggler.
  EXPECT_GT(b.wall_seconds, 1.5 * a.wall_seconds);
}

// FaultPlan parity between a recorded probe and the unsampled run: a fault
// firing INSIDE the probe aborts its recording (AbortStepRecord) and the
// retry records afresh, at bit-identical thresholds, retries and times.
TEST(ChaosScaleTest, FaultInsideRecordedProbeFiresIdentically) {
  const Dataset ds = SmallDataset(/*feature_dim=*/32, /*nodes=*/8000);
  FaultPlan plan;
  plan.collectives.push_back({.after_bytes = 2000});
  RecoveryOptions recovery;
  recovery.retry_collectives = true;

  EngineOptions sampled_opts = ScaleChaosOptions(recovery);
  sampled_opts.scale_sample_period = 4;
  sampled_opts.max_steps_per_epoch = 1;  // exactly one recorded probe
  auto sampled = MakeTrainerWithOptions(ds, SingleMachineCluster(4), sampled_opts);
  sampled->sim().InstallFaults(plan);

  EngineOptions plain_opts = sampled_opts;
  plain_opts.scale_sample_period = 1;
  auto plain = MakeTrainerWithOptions(ds, SingleMachineCluster(4), plain_opts);
  plain->sim().InstallFaults(plan);

  const EpochStats s = sampled->TrainEpoch(0);
  const EpochStats p = plain->TrainEpoch(0);
  EXPECT_GE(sampled->recovery_stats().retries, 1);  // fired inside the probe
  EXPECT_EQ(s.steps_executed, 1);
  EXPECT_EQ(s.loss, p.loss);
  EXPECT_EQ(s.wall_seconds, p.wall_seconds);
  EXPECT_EQ(s.sim_seconds, p.sim_seconds);
  for (DeviceId d = 0; d < sampled->sim().num_devices(); ++d) {
    EXPECT_EQ(sampled->sim().Now(d), plain->sim().Now(d)) << "device " << d;
  }
  EXPECT_EQ(MaxParamDiff(sampled->model0(), plain->model0()), 0.0);
  EXPECT_EQ(sampled->recovery_stats().retries, plain->recovery_stats().retries);
  EXPECT_EQ(sampled->sim().FaultsObserved(), plain->sim().FaultsObserved());
}

TEST(ChaosScaleTest, GiveupDuringFastForwardLeavesAParseableFlightDump) {
  const std::string dir = ::testing::TempDir() + "chaos_scale_flight";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  obs::Flight().SetDumpDir(dir);
  obs::Flight().Clear();

  const Dataset ds = SmallDataset(/*feature_dim=*/32, /*nodes=*/8000);
  FaultPlan plan;
  plan.collectives.push_back({.after_bytes = 30000});
  // Retries disabled: the first mid-fast-forward failure gives up and dumps.
  auto chaotic = ScaleChaosTrainer(ds, plan);
  EXPECT_THROW(chaotic->TrainEpoch(0), CollectiveError);

  std::vector<std::string> dumps;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("flight_", 0) == 0) dumps.push_back(entry.path().string());
  }
  ASSERT_EQ(dumps.size(), 1u);

  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::ParseJsonFile(dumps[0], &doc, &error)) << error;
  ASSERT_NE(doc.StrOrNull("reason"), nullptr);
  EXPECT_NE(doc.StrOrNull("reason")->find("retry budget exhausted"),
            std::string::npos);

  // The dump must tell the sampled-execution story: the failing collective AND
  // completed fast-forwarded steps (flagged fast_forward=1) before it.
  const obs::JsonValue* events = doc.Find("events");
  ASSERT_NE(events, nullptr);
  bool saw_fail = false, saw_fast_forwarded_step = false;
  for (const obs::JsonValue& e : events->arr) {
    const std::string* kind = e.StrOrNull("kind");
    if (kind == nullptr) continue;
    if (*kind == "collective.fail") saw_fail = true;
    if (*kind == "step") {
      const obs::JsonValue* args = e.Find("args");
      if (args != nullptr && args->NumOr("fast_forward", 0.0) == 1.0) {
        saw_fast_forwarded_step = true;
      }
    }
  }
  EXPECT_TRUE(saw_fail);
  EXPECT_TRUE(saw_fast_forwarded_step);

  std::filesystem::remove_all(dir);
  obs::Flight().SetDumpDir(::testing::TempDir());
}

}  // namespace
}  // namespace apt
