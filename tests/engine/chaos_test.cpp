// Chaos regression tests: seeded fault scenarios (straggler GPU, flapping
// link, mid-epoch collective failure) against the full training stack.
// The invariants, per scenario:
//   (a) training completes (retry/backoff absorbs collective failures),
//   (b) the learned model is IDENTICAL to the fault-free run — faults
//       inflate simulated time, never the arithmetic,
//   (c) fault.* / retry.* observability counters record the activity,
//   (d) the whole run is bit-reproducible for a fixed seed.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "apt/resilience.h"
#include "comm/collectives.h"
#include "obs/flight.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/fault.h"
#include "test_util.h"

namespace apt {
namespace {

using ::apt::testing::MakeTrainer;
using ::apt::testing::MaxParamDiff;
using ::apt::testing::SmallDataset;

// Several scenarios below let a FaultError escape the trainer, which dumps a
// flight recording; point those dumps at the test temp dir instead of cwd.
class FlightDumpDirEnvironment : public ::testing::Environment {
 public:
  void SetUp() override { obs::Flight().SetDumpDir(::testing::TempDir()); }
};
const ::testing::Environment* const kFlightDumpDirEnvironment =
    ::testing::AddGlobalTestEnvironment(new FlightDumpDirEnvironment);

std::int64_t Counter(const char* name) {
  return obs::Metrics::Global().counter(name).Get();
}

/// A trainer over the shared small dataset with the given fault plan
/// installed (chunked seeds so runs with different plans stay comparable).
std::unique_ptr<ParallelTrainer> ChaosTrainer(const Dataset& ds,
                                              const FaultPlan& plan,
                                              RecoveryOptions recovery = {}) {
  auto trainer = MakeTrainer(ds, SingleMachineCluster(4), Strategy::kGDP,
                             ModelKind::kSage, /*force_chunked=*/true, 1 << 20,
                             {5, 5}, 128, 0, recovery);
  trainer->sim().InstallFaults(plan);
  return trainer;
}

TEST(ChaosTest, StragglerInflatesTimeButNotLoss) {
  const Dataset ds = SmallDataset();
  auto clean = ChaosTrainer(ds, FaultPlan{});

  FaultPlan plan;
  plan.stragglers.push_back(
      {.device = 1, .start_s = 0.0, .end_s = 1e9, .slowdown = 5.0});
  const std::int64_t observed0 = Counter("fault.straggler.observed");
  auto chaotic = ChaosTrainer(ds, plan);

  const EpochStats a = clean->TrainEpoch(0);
  const EpochStats b = chaotic->TrainEpoch(0);
  EXPECT_DOUBLE_EQ(a.loss, b.loss);  // arithmetic untouched
  EXPECT_EQ(MaxParamDiff(clean->model0(), chaotic->model0()), 0.0);
  EXPECT_GT(b.sim_seconds, a.sim_seconds);  // the straggler costs time
  EXPECT_GE(Counter("fault.straggler.observed") - observed0, 1);
  EXPECT_GE(chaotic->sim().FaultsObserved(), 1);
}

TEST(ChaosTest, FlappingLinkInflatesTimeButNotLoss) {
  const Dataset ds = SmallDataset();
  auto clean = ChaosTrainer(ds, FaultPlan{});

  // Heavily degraded peer-GPU link, flapping at 0.1 ms with 90% duty: hits
  // the ring allreduce and peer-cache reads many times per epoch.
  FaultPlan plan;
  plan.links.push_back({.link_class = static_cast<int>(TrafficClass::kPeerGpu),
                        .start_s = 0.0,
                        .end_s = 1e9,
                        .bandwidth_factor = 0.05,
                        .extra_latency_s = 0.0,
                        .flap_period_s = 1e-4,
                        .flap_duty = 0.9});
  const std::int64_t observed0 = Counter("fault.link.observed");
  auto chaotic = ChaosTrainer(ds, plan);

  const EpochStats a = clean->TrainEpoch(0);
  const EpochStats b = chaotic->TrainEpoch(0);
  EXPECT_DOUBLE_EQ(a.loss, b.loss);
  EXPECT_EQ(MaxParamDiff(clean->model0(), chaotic->model0()), 0.0);
  EXPECT_GT(b.sim_seconds, a.sim_seconds);
  EXPECT_GE(Counter("fault.link.observed") - observed0, 1);
}

TEST(ChaosTest, CollectiveFailureIsRetriedToTheSameModel) {
  const Dataset ds = SmallDataset();
  auto clean = ChaosTrainer(ds, FaultPlan{});

  // One training step moves ~7.4KB of allreduce wire bytes: the first fault
  // fires on the initial attempt, the second mid-way through its retry, so
  // a single step absorbs two consecutive failures.
  FaultPlan plan;
  plan.collectives.push_back({.after_bytes = 1000});
  plan.collectives.push_back({.after_bytes = 8000});
  RecoveryOptions recovery;
  recovery.retry_collectives = true;
  const std::int64_t attempts0 = Counter("retry.collective.attempts");
  const std::int64_t injected0 = Counter("fault.collective.injected");
  auto chaotic = ChaosTrainer(ds, plan, recovery);

  const EpochStats a = clean->TrainEpoch(0);
  const EpochStats b = chaotic->TrainEpoch(0);
  // Retried steps re-fork the same rng stream: the run is bit-identical to
  // the undisturbed one, only slower (failed fraction + backoff).
  EXPECT_DOUBLE_EQ(a.loss, b.loss);
  EXPECT_EQ(MaxParamDiff(clean->model0(), chaotic->model0()), 0.0);
  EXPECT_GT(b.sim_seconds, a.sim_seconds);

  const RecoveryStats& rs = chaotic->recovery_stats();
  EXPECT_EQ(rs.collective_failures, 2);
  EXPECT_EQ(rs.retries, 2);
  EXPECT_EQ(rs.giveups, 0);
  EXPECT_EQ(Counter("retry.collective.attempts") - attempts0, 2);
  EXPECT_EQ(Counter("fault.collective.injected") - injected0, 2);
}

TEST(ChaosTest, CollectiveFailureWithoutRetryPropagates) {
  const Dataset ds = SmallDataset();
  FaultPlan plan;
  plan.collectives.push_back({.after_bytes = 0});
  const std::int64_t giveups0 = Counter("retry.collective.giveups");
  auto chaotic = ChaosTrainer(ds, plan);  // retries disabled by default
  EXPECT_THROW(chaotic->TrainEpoch(0), CollectiveError);
  EXPECT_EQ(Counter("retry.collective.giveups") - giveups0, 1);
  EXPECT_EQ(chaotic->recovery_stats().giveups, 1);
}

TEST(ChaosTest, RetryBudgetExhaustionRethrows) {
  const Dataset ds = SmallDataset();
  // More consecutive faults on the same step than the retry budget allows:
  // thresholds at 0 bytes fire on the first collective of every attempt.
  FaultPlan plan;
  for (int i = 0; i < 5; ++i) plan.collectives.push_back({.after_bytes = 0});
  RecoveryOptions recovery;
  recovery.retry_collectives = true;
  auto chaotic = ChaosTrainer(ds, plan, recovery);
  EXPECT_THROW(chaotic->TrainEpoch(0), CollectiveError);
  const RecoveryStats& rs = chaotic->recovery_stats();
  EXPECT_EQ(rs.retries, 3);
  EXPECT_EQ(rs.giveups, 1);
}

TEST(ChaosTest, ExhaustedRetryBudgetLeavesAFlightRecording) {
  // The ISSUE's flight-recorder acceptance scenario: a chaos run whose retry
  // budget is exhausted must leave a parseable flight_*.json containing the
  // failing collective's event — WITHOUT tracing ever being enabled.
  const std::string dir = ::testing::TempDir() + "chaos_flight";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  obs::Flight().SetDumpDir(dir);
  obs::Flight().Clear();

  const Dataset ds = SmallDataset();
  FaultPlan plan;
  for (int i = 0; i < 5; ++i) plan.collectives.push_back({.after_bytes = 0});
  RecoveryOptions recovery;
  recovery.retry_collectives = true;
  auto chaotic = ChaosTrainer(ds, plan, recovery);
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
  EXPECT_DOUBLE_EQ(doc.NumOr("schema_version", 0.0),
                   static_cast<double>(obs::kObsSchemaVersion));
  ASSERT_NE(doc.StrOrNull("reason"), nullptr);
  EXPECT_NE(doc.StrOrNull("reason")->find("retry budget exhausted"),
            std::string::npos);

  // The recording must tell the failure story: the failing collective (with
  // its wire bytes and traffic class), the retries, and the final giveup.
  const obs::JsonValue* events = doc.Find("events");
  ASSERT_NE(events, nullptr);
  bool saw_fail = false, saw_retry = false, saw_giveup = false;
  for (const obs::JsonValue& e : events->arr) {
    const std::string* kind = e.StrOrNull("kind");
    if (kind == nullptr) continue;
    if (*kind == "collective.fail") {
      const obs::JsonValue* args = e.Find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_GE(args->NumOr("bytes", -1.0), 0.0);
      EXPECT_NE(args->StrOrNull("class"), nullptr);
      saw_fail = true;
    }
    if (*kind == "retry") saw_retry = true;
    if (*kind == "giveup") saw_giveup = true;
  }
  EXPECT_TRUE(saw_fail);
  EXPECT_TRUE(saw_retry);
  EXPECT_TRUE(saw_giveup);

  std::filesystem::remove_all(dir);
  obs::Flight().SetDumpDir(::testing::TempDir());
}

TEST(ChaosTest, StepTimeoutsAreDetected) {
  const Dataset ds = SmallDataset();
  RecoveryOptions recovery;
  recovery.step_timeout_s = 1e-12;  // every step exceeds this
  const std::int64_t timeouts0 = Counter("fault.step_timeouts");
  auto trainer = ChaosTrainer(ds, FaultPlan{}, recovery);
  trainer->TrainEpoch(0);
  EXPECT_EQ(trainer->recovery_stats().step_timeouts, trainer->StepsPerEpoch());
  EXPECT_EQ(Counter("fault.step_timeouts") - timeouts0, trainer->StepsPerEpoch());
}

TEST(ChaosTest, ZeroFaultInjectionHasZeroOverhead) {
  // The acceptance bar for the whole subsystem: with no faults installed
  // (or an empty plan), every simulated quantity is BIT-identical to the
  // pre-fault-layer arithmetic — not "within 1%", exactly equal.
  const Dataset ds = SmallDataset();
  auto plain = MakeTrainer(ds, SingleMachineCluster(4), Strategy::kGDP);
  auto empty_plan = ChaosTrainer(ds, FaultPlan{});
  const EpochStats a = plain->TrainEpoch(0);
  const EpochStats b = empty_plan->TrainEpoch(0);
  EXPECT_DOUBLE_EQ(a.loss, b.loss);
  EXPECT_DOUBLE_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_DOUBLE_EQ(a.wall_seconds, b.wall_seconds);
  EXPECT_DOUBLE_EQ(a.comm_train_seconds, b.comm_train_seconds);
  EXPECT_EQ(MaxParamDiff(plain->model0(), empty_plan->model0()), 0.0);
}

TEST(ChaosTest, SeededChaosIsBitReproducibleAndTraced) {
  const Dataset ds = SmallDataset();
  // Default seed 7; override with APT_CHAOS_SEED=<n> to explore other
  // schedules (any seed must satisfy the same invariants).
  std::uint64_t seed = 7;
  if (const char* env = std::getenv("APT_CHAOS_SEED")) {
    seed = static_cast<std::uint64_t>(std::strtoull(env, nullptr, 10));
  }
  SCOPED_TRACE("chaos seed " + std::to_string(seed));
  FaultPlan plan = RandomFaultPlan(seed, SingleMachineCluster(4),
                                   /*horizon_s=*/1.0, /*intensity=*/1.0);
  // Random fault windows may fall beyond this tiny epoch's simulated span;
  // pin one always-on straggler so a fault.* span is guaranteed to appear.
  plan.stragglers.push_back(
      {.device = 0, .start_s = 0.0, .end_s = 1e9, .slowdown = 2.0});
  RecoveryOptions recovery;
  recovery.retry_collectives = true;

  obs::SetTracingEnabled(true);
  obs::Tracer::Global().Clear();
  auto run1 = ChaosTrainer(ds, plan, recovery);
  const EpochStats s1 = run1->TrainEpoch(0);
  const std::vector<obs::TraceEvent> events = obs::Tracer::Global().Drain();
  obs::SetTracingEnabled(false);

  // The Perfetto stream must carry the fault story: fault.* slices in the
  // "fault" category on the simulated lanes.
  bool saw_fault_span = false;
  for (const obs::TraceEvent& e : events) {
    if (e.cat != nullptr && std::string(e.cat) == "fault" && e.name != nullptr &&
        std::string(e.name).rfind("fault.", 0) == 0) {
      saw_fault_span = true;
      break;
    }
  }
  EXPECT_TRUE(saw_fault_span);

  auto run2 = ChaosTrainer(ds, plan, recovery);
  const EpochStats s2 = run2->TrainEpoch(0);
  EXPECT_DOUBLE_EQ(s1.loss, s2.loss);
  EXPECT_DOUBLE_EQ(s1.sim_seconds, s2.sim_seconds);
  EXPECT_DOUBLE_EQ(s1.wall_seconds, s2.wall_seconds);
  EXPECT_EQ(MaxParamDiff(run1->model0(), run2->model0()), 0.0);
  EXPECT_EQ(run1->recovery_stats().retries, run2->recovery_stats().retries);
}

TEST(ChaosTest, PipelinedStepRetryIsBitIdenticalAfterMidPipelineFailure) {
  // Pipelined execution changes WHEN charges land (capture + overlapped
  // replay), not WHAT runs: a collective fault that unwinds mid-pipeline
  // must replay the partial tape, back off, re-fork the SAME per-step rng
  // stream, and leave the model bit-identical to the undisturbed pipelined
  // run — and to the serial engine.
  const Dataset ds = SmallDataset();
  const ClusterSpec cluster = SingleMachineCluster(4);
  // NFP keeps its broadcast + gathers + loss allreduce INSIDE the pipelined
  // step scope, so the injected faults genuinely strike mid-pipeline.
  auto piped = [&](const FaultPlan& plan, RecoveryOptions recovery = {}) {
    auto t = MakeTrainer(ds, cluster, Strategy::kNFP, ModelKind::kSage,
                         /*force_chunked=*/true, 1 << 20, {5, 5}, 128, 0,
                         recovery, /*pipeline_depth=*/4);
    t->sim().InstallFaults(plan);
    return t;
  };
  auto serial = MakeTrainer(ds, cluster, Strategy::kNFP);
  auto clean = piped(FaultPlan{});

  FaultPlan plan;
  plan.collectives.push_back({.after_bytes = 1000});
  plan.collectives.push_back({.after_bytes = 50000});
  RecoveryOptions recovery;
  recovery.retry_collectives = true;
  auto chaotic = piped(plan, recovery);

  const EpochStats s0 = serial->TrainEpoch(0);
  const EpochStats a = clean->TrainEpoch(0);
  const EpochStats b = chaotic->TrainEpoch(0);
  EXPECT_DOUBLE_EQ(a.loss, b.loss);
  EXPECT_DOUBLE_EQ(s0.loss, b.loss);
  EXPECT_EQ(MaxParamDiff(clean->model0(), chaotic->model0()), 0.0);
  EXPECT_EQ(MaxParamDiff(serial->model0(), chaotic->model0()), 0.0);
  EXPECT_GT(b.sim_seconds, a.sim_seconds);  // failed fraction + backoff

  const RecoveryStats& rs = chaotic->recovery_stats();
  EXPECT_EQ(rs.collective_failures, 2);
  EXPECT_EQ(rs.retries, 2);
  EXPECT_EQ(rs.giveups, 0);
}

TEST(ChaosTest, PipelinedGiveupFlightDumpRecordsInFlightMicrobatch) {
  // When a pipelined run's retry budget is exhausted, the post-mortem
  // flight dump must pin down WHICH micro-batch's collective was in flight
  // ("microbatch" arg on every collective.fail event, in [0, depth-1]).
  const std::string dir = ::testing::TempDir() + "pipeline_flight";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  obs::Flight().SetDumpDir(dir);
  obs::Flight().Clear();

  const Dataset ds = SmallDataset();
  constexpr int kDepth = 4;
  FaultPlan plan;
  for (int i = 0; i < 5; ++i) plan.collectives.push_back({.after_bytes = 0});
  RecoveryOptions recovery;
  recovery.retry_collectives = true;
  auto chaotic = MakeTrainer(ds, SingleMachineCluster(4), Strategy::kNFP,
                             ModelKind::kSage, /*force_chunked=*/true, 1 << 20,
                             {5, 5}, 128, 0, recovery, kDepth);
  chaotic->sim().InstallFaults(plan);
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
  const obs::JsonValue* events = doc.Find("events");
  ASSERT_NE(events, nullptr);
  int fails_seen = 0;
  for (const obs::JsonValue& e : events->arr) {
    const std::string* kind = e.StrOrNull("kind");
    if (kind == nullptr || *kind != "collective.fail") continue;
    const obs::JsonValue* args = e.Find("args");
    ASSERT_NE(args, nullptr);
    const double mb = args->NumOr("microbatch", -1.0);
    EXPECT_GE(mb, 0.0);
    EXPECT_LE(mb, static_cast<double>(kDepth - 1));
    ++fails_seen;
  }
  EXPECT_GE(fails_seen, 1);

  std::filesystem::remove_all(dir);
  obs::Flight().SetDumpDir(::testing::TempDir());
}

TEST(ChaosTest, CollectiveFaultThresholdsCountWireBytesNotLogical) {
  // "Fail after N bytes" means bytes that actually crossed links. With a
  // bf16 gradient codec a 400-logical-byte allreduce puts only 200 bytes on
  // the wire (ring factor 2*(c-1)/c = 1 at c = 2), so a 300-byte threshold
  // must NOT fire on the first call — it would under logical counting — and
  // must fire once the second call's wire bytes push the total past it.
  SimContext sim(SingleMachineCluster(2));
  FaultPlan plan;
  plan.collectives.push_back({.after_bytes = 300});
  sim.InstallFaults(plan);
  Communicator comm(sim);
  comm.set_grad_codec(Codec::kBf16);

  const auto reduce = [&] {
    Tensor sum(1, 100);  // the device-order sum of two all-ones gradients
    sum.Fill(2.0f);
    comm.ChargeAllReduce(sum.bytes(), comm.RingWireBytes(sum, /*gradient_sync=*/true),
                         Phase::kTrain);
  };
  EXPECT_NO_THROW(reduce());  // 200 wire bytes < 300
  EXPECT_THROW(reduce(), CollectiveError);  // cumulative 400 > 300
}

TEST(ChaosTest, ChaosWithWireCodecsIsRetriedAndBitReproducible) {
  // The full chaos invariants with compression on: collective faults (whose
  // thresholds now see compressed bytes) are retried to the SAME model as a
  // fault-free quantized run, and the whole run is bit-reproducible.
  const Dataset ds = SmallDataset();
  const auto quantized = [&](const FaultPlan& plan, RecoveryOptions recovery = {}) {
    auto t = MakeTrainer(ds, SingleMachineCluster(4), Strategy::kGDP,
                         ModelKind::kSage, /*force_chunked=*/true, 1 << 20,
                         {5, 5}, 128, 0, recovery, /*pipeline_depth=*/1,
                         Codec::kBf16, Codec::kBf16, Codec::kBf16);
    t->sim().InstallFaults(plan);
    return t;
  };
  auto clean = quantized(FaultPlan{});

  FaultPlan plan;
  plan.collectives.push_back({.after_bytes = 1000});
  plan.collectives.push_back({.after_bytes = 8000});
  RecoveryOptions recovery;
  recovery.retry_collectives = true;
  auto chaotic = quantized(plan, recovery);

  const EpochStats a = clean->TrainEpoch(0);
  const EpochStats b = chaotic->TrainEpoch(0);
  EXPECT_DOUBLE_EQ(a.loss, b.loss);
  EXPECT_EQ(MaxParamDiff(clean->model0(), chaotic->model0()), 0.0);
  EXPECT_GT(b.sim_seconds, a.sim_seconds);
  EXPECT_GE(chaotic->recovery_stats().collective_failures, 1);
  EXPECT_EQ(chaotic->recovery_stats().giveups, 0);

  auto chaotic2 = quantized(plan, recovery);
  const EpochStats b2 = chaotic2->TrainEpoch(0);
  EXPECT_DOUBLE_EQ(b.loss, b2.loss);
  EXPECT_DOUBLE_EQ(b.sim_seconds, b2.sim_seconds);
  EXPECT_EQ(MaxParamDiff(chaotic->model0(), chaotic2->model0()), 0.0);
  EXPECT_EQ(chaotic->recovery_stats().retries, chaotic2->recovery_stats().retries);
}

TEST(ChaosTest, ResilientRunnerSurvivesAndReplans) {
  // The ISSUE's acceptance scenario: straggler + flapping link + a mid-run
  // collective failure, driven through the full Plan -> Run workflow. The
  // run must complete, re-plan at least once (re-confirming or switching),
  // keep the loss on the fault-free trajectory, and be bit-reproducible.
  const Dataset ds = SmallDataset();
  const ClusterSpec cluster = SingleMachineCluster(4);
  ModelConfig model;
  model.kind = ModelKind::kSage;
  model.num_layers = 2;
  model.hidden_dim = 16;
  EngineOptions opts;
  opts.fanouts = {3, 3};
  opts.batch_size_per_device = 64;
  opts.cache_bytes_per_device = 1 << 20;

  ResilienceOptions chaos;
  chaos.faults.stragglers.push_back(
      {.device = 0, .start_s = 0.0, .end_s = 1e9, .slowdown = 3.0});
  chaos.faults.links.push_back(
      {.link_class = static_cast<int>(TrafficClass::kPeerGpu),
       .start_s = 0.0,
       .end_s = 1e9,
       .bandwidth_factor = 0.2,
       .extra_latency_s = 0.0,
       .flap_period_s = 1e-4,
       .flap_duty = 0.5});
  chaos.faults.collectives.push_back({.after_bytes = 2000});
  chaos.recovery.retry_collectives = true;

  const std::int64_t replans0 = Counter("replan.count");
  AptSystem faulty(ds, cluster, model, opts);
  ResilientRunner runner(faulty, chaos);
  const ResilienceReport report = runner.Run(3);

  ASSERT_EQ(report.epochs.size(), 3u);
  ASSERT_EQ(report.strategy_per_epoch.size(), 3u);
  EXPECT_GE(report.replans, 1);  // degradation was seen and re-evaluated
  EXPECT_GE(Counter("replan.count") - replans0, 1);
  EXPECT_GE(report.recovery.collective_failures, 1);
  EXPECT_GE(report.recovery.retries, 1);
  EXPECT_EQ(report.recovery.giveups, 0);
  EXPECT_GT(report.final_sim_seconds, 0.0);

  // Loss continuity: the chaos run's learning curve tracks the fault-free
  // run (bit-identical without a strategy switch; within the Fig 6 parity
  // tolerance if the re-planner switched strategies mid-run).
  AptSystem fault_free(ds, cluster, model, opts);
  const std::vector<EpochStats> clean = fault_free.Run(3);
  for (std::size_t e = 0; e < clean.size(); ++e) {
    EXPECT_NEAR(clean[e].loss, report.epochs[e].loss, 5e-3) << "epoch " << e;
  }

  // Bit-reproducibility of the entire chaotic workflow under the same seed.
  AptSystem faulty2(ds, cluster, model, opts);
  ResilientRunner runner2(faulty2, chaos);
  const ResilienceReport report2 = runner2.Run(3);
  ASSERT_EQ(report2.epochs.size(), report.epochs.size());
  for (std::size_t e = 0; e < report.epochs.size(); ++e) {
    EXPECT_DOUBLE_EQ(report.epochs[e].loss, report2.epochs[e].loss);
    EXPECT_DOUBLE_EQ(report.epochs[e].sim_seconds, report2.epochs[e].sim_seconds);
    EXPECT_EQ(report.strategy_per_epoch[e], report2.strategy_per_epoch[e]);
  }
  EXPECT_EQ(report.replans, report2.replans);
  EXPECT_EQ(report.switches, report2.switches);
  EXPECT_DOUBLE_EQ(report.final_sim_seconds, report2.final_sim_seconds);
}

TEST(ChaosTest, SloWatchdogTriggersReplanWithoutFaultSignal) {
  // A silent straggler: device 0 runs 3x slow but nothing ERRORS — no
  // collective failure, no retry, no step timeout — so the fault-signal
  // re-plan path is blind (and disabled below to prove it). The runner's
  // SLO watchdog must still see the drift in the windowed per-device
  // busy-skew telemetry and force a re-plan evaluation, bit-reproducibly.
  const Dataset ds = SmallDataset();
  const ClusterSpec cluster = SingleMachineCluster(4);
  ModelConfig model;
  model.kind = ModelKind::kSage;
  model.num_layers = 2;
  model.hidden_dim = 16;
  EngineOptions opts;
  opts.fanouts = {3, 3};
  opts.batch_size_per_device = 64;
  opts.cache_bytes_per_device = 1 << 20;
  // Steps are ~100us of simulated time at this scale; windows must be
  // narrower than an epoch for skew to close mid-run.
  opts.telemetry_window_s = 1e-4;

  ResilienceOptions chaos;
  // 8x: only the device-side share of busy time scales with the slowdown
  // (host sampling does not), so 8x compute puts the windowed busy skew at
  // ~2.1x — comfortably past the default 1.5x bound.
  chaos.faults.stragglers.push_back(
      {.device = 0, .start_s = 0.0, .end_s = 1e9, .slowdown = 8.0});
  chaos.replan_on_degradation = false;  // ONLY the SLO path may re-plan
  chaos.recovery.retry_collectives = true;
  // chaos.slo_rules stays empty -> default busy-skew < 1.5x rule.

  const auto run_once = [&]() {
    obs::Metrics::ResetForTest();  // fresh telemetry windows + counters
    AptSystem system(ds, cluster, model, opts);
    ResilientRunner runner(system, chaos);
    return runner.Run(3);
  };

  const ResilienceReport report = run_once();
  ASSERT_EQ(report.epochs.size(), 3u);
  EXPECT_GE(report.replans, 1);  // the watchdog forced an evaluation
  EXPECT_GE(Counter("replan.slo_trigger"), 1);
  EXPECT_GE(Counter("slo.violations"), 1);
  // ...and it truly fired before any fault/timeout signal existed.
  EXPECT_EQ(report.recovery.collective_failures, 0);
  EXPECT_EQ(report.recovery.retries, 0);
  EXPECT_EQ(report.recovery.step_timeouts, 0);

  // Bit-reproducible under the fixed chaos seed: same windows close at the
  // same virtual instants, same violations fire, same re-plan decisions.
  const ResilienceReport report2 = run_once();
  ASSERT_EQ(report2.epochs.size(), report.epochs.size());
  for (std::size_t e = 0; e < report.epochs.size(); ++e) {
    EXPECT_DOUBLE_EQ(report.epochs[e].loss, report2.epochs[e].loss);
    EXPECT_DOUBLE_EQ(report.epochs[e].sim_seconds, report2.epochs[e].sim_seconds);
    EXPECT_EQ(report.strategy_per_epoch[e], report2.strategy_per_epoch[e]);
  }
  EXPECT_EQ(report.replans, report2.replans);
  EXPECT_EQ(report.switches, report2.switches);
  EXPECT_DOUBLE_EQ(report.final_sim_seconds, report2.final_sim_seconds);
}

}  // namespace
}  // namespace apt
