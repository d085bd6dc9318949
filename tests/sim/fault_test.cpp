// Unit tests for the fault-injection layer: FaultPlan semantics, SimContext
// consumption (stragglers, link degradation, collective failure, barrier
// poisoning), and the zero-fault bitwise-invariance guarantee.
#include <gtest/gtest.h>

#include "comm/collectives.h"
#include "sim/fault.h"
#include "sim/sim_context.h"
#include "tensor/tensor.h"

namespace apt {
namespace {

TEST(LinkFaultTest, WindowAndFlapPhase) {
  LinkFault l;
  l.link_class = static_cast<int>(TrafficClass::kPeerGpu);
  l.start_s = 10.0;
  l.end_s = 20.0;
  EXPECT_FALSE(l.ActiveAt(9.999));
  EXPECT_TRUE(l.ActiveAt(10.0));
  EXPECT_TRUE(l.ActiveAt(19.999));
  EXPECT_FALSE(l.ActiveAt(20.0));

  // Flapping: degraded for the first 25% of every 2 s period.
  l.flap_period_s = 2.0;
  l.flap_duty = 0.25;
  EXPECT_TRUE(l.ActiveAt(10.0));    // phase 0
  EXPECT_TRUE(l.ActiveAt(10.49));   // phase 0.245
  EXPECT_FALSE(l.ActiveAt(10.5));   // phase 0.25
  EXPECT_FALSE(l.ActiveAt(11.9));
  EXPECT_TRUE(l.ActiveAt(12.1));    // next period
}

// A plan's faults are evaluated where they are consumed: straggler factors
// in SimContext::ComputeSeconds at the device's clock, link faults in
// SimContext::DegradedLink.
TEST(FaultPlanTest, StragglerFactorsStack) {
  SimContext ctx(SingleMachineCluster(2));
  const double healthy = ctx.ComputeSeconds(1, 1e9);
  FaultPlan plan;
  plan.stragglers.push_back({.device = 1, .start_s = 0.0, .end_s = 10.0, .slowdown = 2.0});
  plan.stragglers.push_back({.device = 1, .start_s = 5.0, .end_s = 10.0, .slowdown = 3.0});
  ctx.InstallFaults(plan);
  ctx.Advance(0, 1.0, Phase::kTrain);
  ctx.Advance(1, 1.0, Phase::kTrain);
  EXPECT_DOUBLE_EQ(ctx.ComputeSeconds(0, 1e9), healthy);  // other device
  EXPECT_DOUBLE_EQ(ctx.ComputeSeconds(1, 1e9), 2.0 * healthy);
  ctx.Advance(1, 5.0, Phase::kTrain);  // t = 6
  EXPECT_DOUBLE_EQ(ctx.ComputeSeconds(1, 1e9), 6.0 * healthy);  // overlap multiplies
  ctx.Advance(1, 4.0, Phase::kTrain);  // t = 10
  EXPECT_DOUBLE_EQ(ctx.ComputeSeconds(1, 1e9), healthy);  // window closed
}

TEST(FaultPlanTest, DegradeScalesBandwidthAndAddsLatency) {
  FaultPlan plan;
  plan.links.push_back({.link_class = static_cast<int>(TrafficClass::kCrossMachine),
                        .start_s = 0.0,
                        .end_s = 100.0,
                        .bandwidth_factor = 0.5,
                        .extra_latency_s = 1e-3});
  SimContext ctx(SingleMachineCluster(2));
  ctx.InstallFaults(plan);
  const LinkSpec base{.bandwidth_bytes_per_s = 1e9, .latency_s = 1e-5};
  const LinkSpec hit = ctx.DegradedLink(base, TrafficClass::kCrossMachine, 1.0);
  EXPECT_DOUBLE_EQ(hit.bandwidth_bytes_per_s, 0.5e9);
  EXPECT_DOUBLE_EQ(hit.latency_s, 1e-5 + 1e-3);
  // Wrong class / outside window: untouched.
  const LinkSpec miss_cls = ctx.DegradedLink(base, TrafficClass::kPeerGpu, 1.0);
  EXPECT_DOUBLE_EQ(miss_cls.bandwidth_bytes_per_s, base.bandwidth_bytes_per_s);
  const LinkSpec miss_t = ctx.DegradedLink(base, TrafficClass::kCrossMachine, 200.0);
  EXPECT_DOUBLE_EQ(miss_t.latency_s, base.latency_s);
}

TEST(SimContextFaultTest, StragglerSlowsComputeOnlyInsideWindow) {
  SimContext ctx(SingleMachineCluster(2));
  const double base = ctx.ComputeSeconds(0, 1e9);
  ASSERT_GT(base, 0.0);

  FaultPlan plan;
  plan.stragglers.push_back({.device = 0, .start_s = 10.0, .end_s = 20.0, .slowdown = 4.0});
  ctx.InstallFaults(plan);
  EXPECT_DOUBLE_EQ(ctx.ComputeSeconds(0, 1e9), base);  // clock still at 0
  EXPECT_DOUBLE_EQ(ctx.ComputeSeconds(1, 1e9), base);
  ctx.Advance(0, 15.0, Phase::kTrain);
  EXPECT_DOUBLE_EQ(ctx.ComputeSeconds(0, 1e9), 4.0 * base);
  EXPECT_DOUBLE_EQ(ctx.ComputeSeconds(1, 1e9), base);  // peer unaffected
  ctx.Advance(0, 10.0, Phase::kTrain);                 // clock now 25 > end
  EXPECT_DOUBLE_EQ(ctx.ComputeSeconds(0, 1e9), base);
  EXPECT_GE(ctx.FaultsObserved(), 1);
}

TEST(SimContextFaultTest, EffectiveLinksDegradeAtCurrentClocks) {
  const ClusterSpec cluster = SingleMachineCluster(2);
  SimContext ctx(cluster);
  const LinkSpec base = cluster.LinkBetween(0, 1);

  FaultPlan plan;
  plan.links.push_back({.link_class = static_cast<int>(TrafficClass::kPeerGpu),
                        .start_s = 5.0,
                        .end_s = 50.0,
                        .bandwidth_factor = 0.1});
  ctx.InstallFaults(plan);
  EXPECT_DOUBLE_EQ(ctx.EffectiveLinkBetween(0, 1).bandwidth_bytes_per_s,
                   base.bandwidth_bytes_per_s);
  // The pair's time is max(clock a, clock b): advancing only device 1 into
  // the window degrades the pair.
  ctx.Advance(1, 6.0, Phase::kTrain);
  EXPECT_DOUBLE_EQ(ctx.EffectiveLinkBetween(0, 1).bandwidth_bytes_per_s,
                   0.1 * base.bandwidth_bytes_per_s);
}

TEST(SimContextFaultTest, ZeroFaultPathsAreBitIdentical) {
  const ClusterSpec cluster = SingleMachineCluster(4);
  SimContext plain(cluster);
  SimContext installed(cluster);
  installed.InstallFaults(FaultPlan{});  // empty plan
  EXPECT_FALSE(installed.HasFaults());
  for (DeviceId a = 0; a < 4; ++a) {
    EXPECT_EQ(plain.ComputeSeconds(a, 123456.0), installed.ComputeSeconds(a, 123456.0));
    for (DeviceId b = 0; b < 4; ++b) {
      if (a == b) continue;
      EXPECT_EQ(cluster.LinkBetween(a, b).bandwidth_bytes_per_s,
                installed.EffectiveLinkBetween(a, b).bandwidth_bytes_per_s);
      EXPECT_EQ(cluster.LinkBetween(a, b).latency_s,
                installed.EffectiveLinkBetween(a, b).latency_s);
    }
  }
}

TEST(SimContextFaultTest, CollectiveFaultFiresOnceAtThreshold) {
  SimContext ctx(SingleMachineCluster(2));
  FaultPlan plan;
  plan.collectives.push_back({.after_bytes = 1000});
  ctx.InstallFaults(plan);

  EXPECT_FALSE(ctx.CollectiveFailureFraction(600).has_value());
  EXPECT_EQ(ctx.CollectiveBytesDone(), 600);
  // This call crosses the 1000-byte threshold 400/800 of the way through.
  const auto frac = ctx.CollectiveFailureFraction(800);
  ASSERT_TRUE(frac.has_value());
  EXPECT_DOUBLE_EQ(*frac, 0.5);
  EXPECT_EQ(ctx.CollectiveBytesDone(), 1000);  // advanced to the threshold
  // The retry of the same call passes: the fault is consumed.
  EXPECT_FALSE(ctx.CollectiveFailureFraction(800).has_value());
  EXPECT_EQ(ctx.CollectiveBytesDone(), 1800);
}

TEST(SimContextFaultTest, PoisonedBarrierThrowsTypedErrorUntilCleared) {
  SimContext ctx(SingleMachineCluster(2));
  ctx.BarrierAll(Phase::kTrain);  // healthy
  ctx.PoisonBarrier("test failure");
  EXPECT_TRUE(ctx.BarrierPoisoned());
  EXPECT_THROW(ctx.BarrierAll(Phase::kTrain), BarrierPoisonedError);
  // Still poisoned: EVERY waiter observes the error, not just the first.
  EXPECT_THROW(ctx.BarrierAll(Phase::kTrain), BarrierPoisonedError);
  ctx.ClearBarrierPoison();
  ctx.BarrierAll(Phase::kTrain);  // recovered
}

TEST(CommunicatorFaultTest, FailedAllReducePoisonsBarrierForWaiters) {
  SimContext ctx(SingleMachineCluster(2));
  FaultPlan plan;
  plan.collectives.push_back({.after_bytes = 0});  // fail the first collective
  ctx.InstallFaults(plan);
  Communicator comm(ctx);

  const std::int64_t bytes = 8 * 8 * 4;  // one 8 x 8 fp32 tensor per device
  EXPECT_THROW(comm.ChargeAllReduce(bytes, bytes, Phase::kTrain), CollectiveError);
  // A peer arriving at the barrier sees a typed error instead of hanging.
  EXPECT_THROW(ctx.BarrierAll(Phase::kTrain), BarrierPoisonedError);
  // Recovery: clear the poison and retry; the consumed fault lets it pass.
  ctx.ClearBarrierPoison();
  comm.ChargeAllReduce(bytes, bytes, Phase::kTrain);
}

TEST(RandomFaultPlanTest, SeededAndWellFormed) {
  const ClusterSpec cluster = MultiMachineCluster(2, 2);
  const FaultPlan a = RandomFaultPlan(42, cluster, /*horizon_s=*/100.0, 1.0);
  const FaultPlan b = RandomFaultPlan(42, cluster, 100.0, 1.0);
  EXPECT_EQ(a.Describe(), b.Describe());  // bit-reproducible
  EXPECT_FALSE(a.Empty());                // intensity 1.0 always draws faults

  for (const StragglerFault& s : a.stragglers) {
    EXPECT_GE(s.device, 0);
    EXPECT_LT(s.device, cluster.num_devices());
    EXPECT_LT(s.start_s, s.end_s);
    EXPECT_GT(s.slowdown, 1.0);
  }
  for (const LinkFault& l : a.links) {
    EXPECT_LT(l.start_s, l.end_s);
    EXPECT_GT(l.bandwidth_factor, 0.0);
    EXPECT_LT(l.bandwidth_factor, 1.0);
  }
  for (std::size_t i = 1; i < a.collectives.size(); ++i) {
    EXPECT_LE(a.collectives[i - 1].after_bytes, a.collectives[i].after_bytes);
  }
  const FaultPlan c = RandomFaultPlan(43, cluster, 100.0, 1.0);
  EXPECT_NE(a.Describe(), c.Describe());  // seed actually matters
}

}  // namespace
}  // namespace apt
