// Golden-parity property suite for the shape-only ring collectives
// (AllReduceSumShape / AllBroadcastTensorShapes, which run the profiler's
// trials): they must charge BIT-IDENTICAL virtual seconds and
// per-TrafficClass logical + wire bytes to their byte-moving twins — across
// random clusters, wire/gradient codecs, and pipeline depths — because they
// run the same link/codec/fault-threshold math and only skip materializing
// and moving the payload. The sparse all-to-all charge (ChargeAllToAll) has
// no twin; the 64-device test below drives its lanes through the parallel
// clock commit.
//
// kDeltaBitmask is deliberately absent: its wire bytes depend on payload
// content, so the shape path charges the documented dense worst case
// (CodecWireBytes(rows, cols)) and exact parity is not claimed.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "comm/collectives.h"
#include "core/error.h"
#include "core/random.h"
#include "runtime/parallel_for.h"
#include "sim/fault.h"
#include "sim/hardware.h"
#include "sim/sim_context.h"
#include "tensor/tensor.h"

namespace apt {
namespace {

constexpr Codec kShapeFaithfulCodecs[] = {Codec::kIdentity, Codec::kBf16,
                                          Codec::kInt8};

/// One randomly drawn collective sequence: every row/length below is decided
/// before either twin runs, so both charge from identical geometry.
struct Geometry {
  std::int64_t cols = 0;
  std::int64_t allreduce_rows = 0;
  bool gradient_sync = false;
  std::vector<std::int64_t> broadcast_rows;            ///< AllBroadcastTensors
  std::vector<std::vector<std::int64_t>> lane_bytes;   ///< all-to-all lane i->j
};

Geometry DrawGeometry(Rng& rng, std::int32_t devices) {
  const auto c = static_cast<std::size_t>(devices);
  Geometry g;
  g.cols = 1 + static_cast<std::int64_t>(rng.NextBelow(12));
  g.lane_bytes.assign(c, std::vector<std::int64_t>(c, 0));
  g.broadcast_rows.resize(c);
  for (std::size_t i = 0; i < c; ++i) {
    g.broadcast_rows[i] = static_cast<std::int64_t>(rng.NextBelow(7));
    for (std::size_t j = 0; j < c; ++j) {
      // 0-byte entries exercise the sparse (free-lane) case.
      g.lane_bytes[i][j] = 8 * static_cast<std::int64_t>(rng.NextBelow(40));
    }
  }
  g.allreduce_rows = 1 + static_cast<std::int64_t>(rng.NextBelow(9));
  g.gradient_sync = rng.NextBelow(2) == 1;
  return g;
}

ClusterSpec DrawCluster(Rng& rng) {
  const auto machines = static_cast<std::int32_t>(1 + rng.NextBelow(3));
  const auto gpus = static_cast<std::int32_t>(2 + rng.NextBelow(3));
  const bool nvlink = rng.NextBelow(2) == 1;
  return machines == 1 ? SingleMachineCluster(gpus, nvlink)
                       : MultiMachineCluster(machines, gpus, nvlink);
}

Tensor FilledTensor(std::int64_t rows, std::int64_t cols, Rng& rng) {
  Tensor t(rows, cols);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = rng.NextUniform(-2.0f, 2.0f);
  }
  return t;
}

/// The byte-moving sequence. `fill` makes payload content irrelevant by
/// construction for the shape-faithful codecs; it is varied anyway.
void RunByteMoving(SimContext& ctx, Communicator& comm, const Geometry& g,
                   int depth) {
  const auto c = static_cast<std::size_t>(comm.num_devices());
  Rng fill(99);
  if (depth > 1) ctx.BeginPipelinedStep(depth);
  std::vector<Tensor> grads;
  std::vector<Tensor*> grad_ptrs;
  for (std::size_t i = 0; i < c; ++i) {
    grads.push_back(FilledTensor(g.allreduce_rows, g.cols, fill));
  }
  for (auto& t : grads) grad_ptrs.push_back(&t);
  comm.AllReduceSum(grad_ptrs, Phase::kTrain, g.gradient_sync);

  std::vector<Tensor> inputs;
  for (std::size_t i = 0; i < c; ++i) {
    inputs.push_back(FilledTensor(g.broadcast_rows[i], g.cols, fill));
  }
  comm.AllBroadcastTensors(inputs, Phase::kSample);
  if (depth > 1) ctx.EndPipelinedStep();
}

/// The analytic twin: same geometry, shape-only entry points.
void RunAnalytic(SimContext& ctx, Communicator& comm, const Geometry& g,
                 int depth) {
  const auto c = static_cast<std::size_t>(comm.num_devices());
  if (depth > 1) ctx.BeginPipelinedStep(depth);
  comm.AllReduceSumShape(g.allreduce_rows, g.cols, Phase::kTrain,
                         g.gradient_sync);

  std::vector<Communicator::TensorShape> inputs(c);
  for (std::size_t i = 0; i < c; ++i) inputs[i] = {g.broadcast_rows[i], g.cols};
  comm.AllBroadcastTensorShapes(inputs, Phase::kSample);
  if (depth > 1) ctx.EndPipelinedStep();
}

/// One sparse all-to-all of the geometry's structural lanes (uncompressed:
/// wire == logical bytes).
void ChargeLanes(Communicator& comm, const Geometry& g) {
  AllToAllTraffic traffic;
  for (const std::vector<std::int64_t>& row : g.lane_bytes) {
    for (std::size_t j = 0; j < row.size(); ++j) {
      traffic.Add(static_cast<DeviceId>(j), row[j], row[j]);
    }
    traffic.EndSender();
  }
  comm.ChargeAllToAll(traffic, Phase::kSample);
}

void ExpectBitIdentical(const SimContext& a, const SimContext& b) {
  ASSERT_EQ(a.num_devices(), b.num_devices());
  for (DeviceId d = 0; d < a.num_devices(); ++d) {
    EXPECT_EQ(a.Now(d), b.Now(d)) << "device " << d;
  }
  for (int p = 0; p < kNumPhases; ++p) {
    EXPECT_EQ(a.PhaseMax(static_cast<Phase>(p)),
              b.PhaseMax(static_cast<Phase>(p)))
        << "phase " << p;
    EXPECT_EQ(a.CommMax(static_cast<Phase>(p)), b.CommMax(static_cast<Phase>(p)))
        << "comm phase " << p;
  }
  for (int t = 0; t < static_cast<int>(TrafficClass::kNumClasses); ++t) {
    const auto cls = static_cast<TrafficClass>(t);
    EXPECT_EQ(a.TrafficBytes(cls), b.TrafficBytes(cls)) << ToString(cls);
    EXPECT_EQ(a.TrafficWireBytes(cls), b.TrafficWireBytes(cls)) << ToString(cls);
  }
}

TEST(ScaleParityTest, AnalyticTwinsChargeBitIdenticalSecondsAndBytes) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    for (const Codec codec : kShapeFaithfulCodecs) {
      for (const int depth : {1, 4}) {
        SCOPED_TRACE("seed=" + std::to_string(seed) +
                     " codec=" + std::string(ToString(codec)) +
                     " depth=" + std::to_string(depth));
        Rng rng(seed * 7919 + 13);
        const ClusterSpec cluster = DrawCluster(rng);
        const Geometry g = DrawGeometry(rng, cluster.num_devices());

        SimContext real_ctx(cluster);
        SimContext shape_ctx(cluster);
        Communicator real(real_ctx);
        Communicator shape(shape_ctx);
        for (Communicator* c : {&real, &shape}) {
          c->SetWireCodecAll(codec);
          c->set_grad_codec(codec);
        }
        RunByteMoving(real_ctx, real, g, depth);
        RunAnalytic(shape_ctx, shape, g, depth);
        ExpectBitIdentical(real_ctx, shape_ctx);
      }
    }
  }
}

// From 64 devices on, the per-device clock commits of barriers and
// collective charging fan out over the fork-join pool
// (SimContext::ParallelCommit). The fan-out must be bit-identical to the
// same context run on one lane: per-device FP sequences are unchanged, only
// the loop over devices is distributed.
TEST(ScaleParityTest, ParallelClockAdvanceIsBitIdenticalAt64Devices) {
  const ClusterSpec cluster = MultiMachineCluster(16, 4);  // 64 devices
  Rng rng(4242);
  const Geometry g = DrawGeometry(rng, cluster.num_devices());
  SimContext serial_ctx(cluster);
  SimContext parallel_ctx(cluster);
  ASSERT_TRUE(parallel_ctx.ParallelCommit());
  Communicator serial(serial_ctx);
  Communicator parallel(parallel_ctx);
  for (int round = 0; round < 3; ++round) {
    {
      ScopedParallelismLimit one_lane(1);
      RunAnalytic(serial_ctx, serial, g, /*depth=*/1);
      ChargeLanes(serial, g);
    }
    RunAnalytic(parallel_ctx, parallel, g, /*depth=*/1);
    ChargeLanes(parallel, g);
  }
  {
    ScopedParallelismLimit one_lane(1);
    serial_ctx.BarrierAll(Phase::kTrain);
  }
  parallel_ctx.BarrierAll(Phase::kTrain);
  ExpectBitIdentical(serial_ctx, parallel_ctx);
}

// Wire-byte collective-failure thresholds consume the SAME cumulative
// counters on the analytic path: the fault fires at the same collective,
// poisons the barrier the same way, and leaves bit-identical clocks.
TEST(ScaleParityTest, CollectiveFaultThresholdFiresIdenticallyOnAnalyticPath) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed + 1);
    const ClusterSpec cluster = DrawCluster(rng);
    const Geometry g = DrawGeometry(rng, cluster.num_devices());

    FaultPlan plan;
    plan.collectives.push_back({/*after_bytes=*/64});

    SimContext real_ctx(cluster);
    SimContext shape_ctx(cluster);
    real_ctx.InstallFaults(plan);
    shape_ctx.InstallFaults(plan);
    Communicator real(real_ctx);
    Communicator shape(shape_ctx);

    EXPECT_THROW(RunByteMoving(real_ctx, real, g, /*depth=*/1), CollectiveError);
    EXPECT_THROW(RunAnalytic(shape_ctx, shape, g, /*depth=*/1), CollectiveError);
    EXPECT_EQ(real_ctx.FaultsObserved(), shape_ctx.FaultsObserved());
    EXPECT_GE(real_ctx.FaultsObserved(), 1);
    real_ctx.ClearBarrierPoison();
    shape_ctx.ClearBarrierPoison();
    ExpectBitIdentical(real_ctx, shape_ctx);
  }
}

}  // namespace
}  // namespace apt
