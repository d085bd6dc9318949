// Stream semantics of the pipelined micro-batch replay (sim_pipeline.cpp):
// capture defers clock motion until the scope's sync point, replayed comm
// never slows compute below the serial schedule, overlap windows obey the
// two-op closed form max(c, t) + min(c, t) / depth, and barrier poisoning
// from a failed collective propagates across both streams.
#include <gtest/gtest.h>

#include "comm/collectives.h"
#include "sim/hardware.h"
#include "sim/sim_context.h"

namespace apt {
namespace {

TEST(PipelineStreamTest, CaptureDefersAllAccountingUntilScopeExit) {
  SimContext ctx(SingleMachineCluster(2));
  {
    SimContext::PipelinedStepScope scope(ctx, /*depth=*/4);
    EXPECT_TRUE(ctx.PipelineCapturing());
    EXPECT_EQ(ctx.PipelineDepth(), 4);
    ctx.AdvanceComm(0, 1.0, Phase::kTrain, "alltoall");
    ctx.Advance(0, 0.5, Phase::kTrain);
    // Comm-stream advances (and everything else) move NO clock before the
    // scope's stream-sync point: the step runs at frozen clocks.
    EXPECT_DOUBLE_EQ(ctx.Now(0), 0.0);
    EXPECT_DOUBLE_EQ(ctx.PhaseOf(0, Phase::kTrain), 0.0);
    EXPECT_DOUBLE_EQ(ctx.CommOf(0, Phase::kTrain), 0.0);
    EXPECT_DOUBLE_EQ(ctx.CommStreamOf(0, Phase::kTrain), 0.0);
  }
  EXPECT_FALSE(ctx.PipelineCapturing());
  EXPECT_EQ(ctx.PipelineDepth(), 1);
  // Replay landed: comm-bound two-op schedule, c=1.0 > t=0.5, depth 4.
  EXPECT_NEAR(ctx.Now(0), 1.0 + 0.5 / 4.0, 1e-12);
  ctx.DebugCheckClockInvariant();
}

TEST(PipelineStreamTest, DepthOneScopeIsByteForByteSerial) {
  SimContext piped(SingleMachineCluster(2));
  SimContext serial(SingleMachineCluster(2));
  {
    SimContext::PipelinedStepScope scope(piped, /*depth=*/1);  // no-op scope
    EXPECT_FALSE(piped.PipelineCapturing());
    piped.AdvanceComm(0, 0.25, Phase::kTrain, "allreduce");
    piped.AdvanceLabeled(1, 0.75, Phase::kLoad, "gather");
  }
  serial.AdvanceComm(0, 0.25, Phase::kTrain, "allreduce");
  serial.AdvanceLabeled(1, 0.75, Phase::kLoad, "gather");
  for (DeviceId d = 0; d < 2; ++d) {
    EXPECT_EQ(piped.Now(d), serial.Now(d));
    for (Phase p : {Phase::kSample, Phase::kLoad, Phase::kTrain}) {
      EXPECT_EQ(piped.PhaseOf(d, p), serial.PhaseOf(d, p));
      EXPECT_EQ(piped.CommOf(d, p), serial.CommOf(d, p));
      EXPECT_EQ(piped.CommStreamOf(d, p), 0.0);
    }
  }
}

/// The hand-checkable two-op scenario: one comm op (c seconds) feeding one
/// compute op (t seconds) on a single device. At depth D the replay's
/// schedule ends at exactly max(c, t) + min(c, t) / D — steady-state overlap
/// of the dominant side plus one micro-batch ramp of the hidden side.
void ExpectTwoOpClosedForm(double c, double t, int depth) {
  SimContext ctx(SingleMachineCluster(2));
  {
    SimContext::PipelinedStepScope scope(ctx, depth);
    ctx.AdvanceComm(0, c, Phase::kTrain, "alltoall");
    ctx.Advance(0, t, Phase::kTrain);
  }
  const double expect =
      std::max(c, t) + std::min(c, t) / static_cast<double>(depth);
  EXPECT_NEAR(ctx.Now(0), expect, 1e-12) << "c=" << c << " t=" << t
                                         << " depth=" << depth;
  // The comm STREAM was busy for the full comm time (it all overlapped or
  // ran exposed — either way the stream carried it)...
  EXPECT_NEAR(ctx.CommStreamOf(0, Phase::kTrain), c, 1e-12);
  // ...while the device clock's comm share is only the EXPOSED part: total
  // minus the compute that hid it.
  EXPECT_NEAR(ctx.CommOf(0, Phase::kTrain), expect - t, 1e-12);
  // Invariant: phase sums still tile the clock exactly.
  EXPECT_NEAR(ctx.PhaseOf(0, Phase::kTrain), expect, 1e-12);
  ctx.DebugCheckClockInvariant();
}

TEST(PipelineStreamTest, TwoOpOverlapWindowCommBound) {
  ExpectTwoOpClosedForm(/*c=*/0.8, /*t=*/0.2, /*depth=*/2);
  ExpectTwoOpClosedForm(0.8, 0.2, 4);
  ExpectTwoOpClosedForm(0.8, 0.2, 8);
}

TEST(PipelineStreamTest, TwoOpOverlapWindowComputeBound) {
  ExpectTwoOpClosedForm(/*c=*/0.2, /*t=*/0.8, /*depth=*/2);
  ExpectTwoOpClosedForm(0.2, 0.8, 4);
  ExpectTwoOpClosedForm(0.2, 0.8, 8);
}

TEST(PipelineStreamTest, LoadPhaseAdvancesRideTheCommStream) {
  SimContext ctx(SingleMachineCluster(2));
  {
    SimContext::PipelinedStepScope scope(ctx, /*depth=*/4);
    // A feature gather is a plain AdvanceLabeled (not AdvanceComm), but
    // Phase::kLoad routes it to the comm stream — it is a transfer.
    ctx.AdvanceLabeled(0, 0.4, Phase::kLoad, "gather");
    ctx.Advance(0, 0.4, Phase::kTrain);
  }
  EXPECT_NEAR(ctx.CommStreamOf(0, Phase::kLoad), 0.4, 1e-12);
  EXPECT_DOUBLE_EQ(ctx.CommStreamOf(0, Phase::kTrain), 0.0);
  EXPECT_NEAR(ctx.Now(0), 0.4 + 0.4 / 4.0, 1e-12);
  // The exposed remainder of the gather is charged to kLoad on the compute
  // timeline (as pipeline stalls), keeping the phase split meaningful.
  EXPECT_NEAR(ctx.PhaseOf(0, Phase::kLoad), 0.4 + 0.4 / 4.0 - 0.4, 1e-12);
  EXPECT_NEAR(ctx.PhaseOf(0, Phase::kTrain), 0.4, 1e-12);
  ctx.DebugCheckClockInvariant();
}

TEST(PipelineStreamTest, CommOnlyOpIsFullyExposed) {
  SimContext ctx(SingleMachineCluster(2));
  {
    SimContext::PipelinedStepScope scope(ctx, /*depth=*/4);
    ctx.AdvanceComm(0, 1.0, Phase::kTrain, "allreduce");
  }
  // Nothing to overlap against: same cost as serial, all of it exposed.
  EXPECT_NEAR(ctx.Now(0), 1.0, 1e-12);
  EXPECT_NEAR(ctx.CommOf(0, Phase::kTrain), 1.0, 1e-12);
  EXPECT_NEAR(ctx.CommStreamOf(0, Phase::kTrain), 1.0, 1e-12);
  ctx.DebugCheckClockInvariant();
}

TEST(PipelineStreamTest, BarrierJoinsMicrobatchChainsAcrossDevices) {
  SimContext ctx(SingleMachineCluster(2));
  {
    SimContext::PipelinedStepScope scope(ctx, /*depth=*/2);
    ctx.AdvanceComm(0, 1.0, Phase::kTrain, "alltoall");
    ctx.AdvanceComm(1, 2.0, Phase::kTrain, "alltoall");
    ctx.BarrierAll(Phase::kTrain);
    // Post-barrier compute may start only after BOTH devices' micro-batch-m
    // collectives joined.
    ctx.Advance(0, 0.1, Phase::kTrain);
    ctx.Advance(1, 0.1, Phase::kTrain);
  }
  // Micro-batch 0 joins at t=1.0 (dev1's first chunk): dev0's compute chunk
  // cannot start before then even though its own comm finished at 0.5.
  // Schedule: dev1 comm [0,1][1,2], computes at [1,1.05] and [2,2.05];
  // dev0 comm [0,.5][.5,1], computes at [1,1.05] and [2,2.05].
  EXPECT_NEAR(ctx.Now(0), 2.05, 1e-12);
  EXPECT_NEAR(ctx.Now(1), 2.05, 1e-12);
  ctx.DebugCheckClockInvariant();
}

TEST(PipelineStreamTest, SequentialPipelinedStepsAreMonotone) {
  SimContext ctx(SingleMachineCluster(2));
  double prev0 = 0.0, prev1 = 0.0;
  for (int step = 0; step < 4; ++step) {
    {
      SimContext::PipelinedStepScope scope(ctx, /*depth=*/4);
      ctx.AdvanceComm(0, 0.3, Phase::kTrain, "alltoall");
      ctx.Advance(0, 0.2, Phase::kTrain);
      ctx.AdvanceLabeled(1, 0.1, Phase::kLoad, "gather");
      ctx.Advance(1, 0.5, Phase::kTrain);
    }
    // Stream sync points only ever move clocks forward, and each step's
    // schedule is anchored at the clocks the previous sync committed.
    EXPECT_GT(ctx.Now(0), prev0);
    EXPECT_GT(ctx.Now(1), prev1);
    prev0 = ctx.Now(0);
    prev1 = ctx.Now(1);
    ctx.DebugCheckClockInvariant();
  }
  // Per-step cost is identical in steady state, so 4 steps = 4x one step.
  EXPECT_NEAR(ctx.Now(0), 4.0 * (0.3 + 0.2 / 4.0), 1e-12);
  EXPECT_NEAR(ctx.Now(1), 4.0 * (0.5 + 0.1 / 4.0), 1e-12);
}

TEST(PipelineStreamTest, OverlapNeverExceedsSerialCost) {
  // The same op sequence, serial vs pipelined: overlap can only hide time.
  SimContext serial(SingleMachineCluster(2));
  SimContext piped(SingleMachineCluster(2));
  const auto run = [](SimContext& ctx) {
    ctx.AdvanceLabeled(0, 0.4, Phase::kLoad, "gather");
    ctx.AdvanceComm(0, 0.3, Phase::kTrain, "alltoall");
    ctx.Advance(0, 0.6, Phase::kTrain);
    ctx.AdvanceLabeled(1, 0.2, Phase::kLoad, "gather");
    ctx.AdvanceComm(1, 0.5, Phase::kTrain, "alltoall");
    ctx.Advance(1, 0.4, Phase::kTrain);
    ctx.BarrierAll(Phase::kTrain);
  };
  run(serial);
  {
    SimContext::PipelinedStepScope scope(piped, /*depth=*/4);
    run(piped);
  }
  for (DeviceId d = 0; d < 2; ++d) {
    EXPECT_LE(piped.Now(d), serial.Now(d) + 1e-12);
    // The full communication volume still ran — on the comm stream.
    EXPECT_NEAR(piped.CommStreamOf(d, Phase::kLoad) +
                    piped.CommStreamOf(d, Phase::kTrain),
                0.7, 1e-12);
  }
  piped.DebugCheckClockInvariant();
}

TEST(PipelineStreamTest, PoisonPropagatesAcrossStreamsUnderCollectiveFault) {
  SimContext ctx(SingleMachineCluster(2));
  FaultPlan plan;
  plan.collectives.push_back({.after_bytes = 0});  // fail the first collective
  ctx.InstallFaults(plan);
  Communicator comm(ctx);

  const std::int64_t bytes = 8 * 8 * 4;  // one 8 x 8 fp32 tensor per device
  {
    SimContext::PipelinedStepScope scope(ctx, /*depth=*/4);
    ctx.AdvanceLabeled(0, 0.2, Phase::kLoad, "gather");
    EXPECT_THROW(comm.ChargeAllReduce(bytes, bytes, Phase::kTrain), CollectiveError);
    // Poison is visible IMMEDIATELY, mid-capture: a peer reaching a barrier
    // inside the same pipelined step must not enqueue more work.
    EXPECT_TRUE(ctx.BarrierPoisoned());
    EXPECT_THROW(ctx.BarrierAll(Phase::kTrain), BarrierPoisonedError);
  }  // scope exit replays the partial tape (the charged fault fraction)
  // The poison survives the stream-sync point: waiters on EITHER stream of
  // any device observe the typed error until recovery clears it.
  EXPECT_THROW(ctx.BarrierAll(Phase::kTrain), BarrierPoisonedError);
  EXPECT_FALSE(ctx.PipelineCapturing());
  // The captured pre-fault work still landed on the clocks.
  EXPECT_NEAR(ctx.Now(0), 0.2, 1e-12);
  ctx.ClearBarrierPoison();
  comm.ChargeAllReduce(bytes, bytes, Phase::kTrain);  // consumed fault: retry passes
  ctx.DebugCheckClockInvariant();
}

}  // namespace
}  // namespace apt
