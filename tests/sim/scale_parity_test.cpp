// The ring charges (ChargeAllReduce / ChargeAllBroadcast) against goldens
// recorded through the byte-moving ring collectives they replaced, the
// analytic (shape-priced) twins against the payload-priced charges, and
// 64-device collective charging at one lane against full width.
//
// The ring golden was recorded through the byte-moving ring collectives (a
// payload-summing allreduce, tensor and object broadcasts, double-vector
// allreduces): seeded random clusters, ring wire codecs, gradient codecs
// (kDeltaBitmask included, whose wire bytes follow the reduced content),
// pipeline depths and step-tape replays, plus one collective fault. Every
// device's clock, per-phase busy and comm time, the per-class logical and
// wire bytes, the ring counters, the flight records and the fault text must
// hash to the same value. The ring wire codec is drawn from the codecs
// priced by shape alone: under kDeltaBitmask the charges price a
// non-gradient ring at its dense worst case (Communicator::RingWireBytes),
// which RingWireBytesPricing pins.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "comm/collectives.h"
#include "core/error.h"
#include "core/random.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "runtime/parallel_for.h"
#include "sim/fault.h"
#include "sim/hardware.h"
#include "sim/sim_context.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace apt {
namespace {

ClusterSpec DrawCluster(Rng& rng) {
  const auto machines = static_cast<std::int32_t>(1 + rng.NextBelow(3));
  const auto gpus = static_cast<std::int32_t>(2 + rng.NextBelow(3));
  const bool nvlink = rng.NextBelow(2) == 1;
  return machines == 1 ? SingleMachineCluster(gpus, nvlink)
                       : MultiMachineCluster(machines, gpus, nvlink);
}

/// rows x cols with about a third of the entries nonzero, so kDeltaBitmask
/// wire bytes depend on the content.
Tensor SparseTensor(std::int64_t rows, std::int64_t cols, Rng& rng) {
  Tensor t(rows, cols);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    if (rng.NextBelow(3) == 0) t.data()[i] = rng.NextUniform(-2.0f, 2.0f);
  }
  return t;
}

// --- the ring sequence, through the charges ---------------------------------

/// A payload-summing allreduce: the device-order sum is formed by the
/// caller, then charged.
void AllReduceTensors(Communicator& comm, const std::vector<Tensor>& parts,
                      bool gradient_sync, Phase phase) {
  Tensor sum = parts[0];
  for (std::size_t i = 1; i < parts.size(); ++i) Axpy(1.0f, parts[i], sum);
  comm.ChargeAllReduce(sum.bytes(), comm.RingWireBytes(sum, gradient_sync), phase);
}

/// A broadcast of one tensor per device, read in place.
void BroadcastTensors(Communicator& comm, const std::vector<Tensor>& parts, Phase phase) {
  std::int64_t bytes = 0;
  std::int64_t wire = 0;
  for (const Tensor& t : parts) {
    bytes += t.bytes();
    wire += comm.RingWireBytes(t);
  }
  comm.ChargeAllBroadcast(bytes, wire, phase);
}

/// A broadcast of one uncompressed object of `sizes[d]` bytes per device.
void BroadcastObjects(Communicator& comm, const std::vector<std::int64_t>& sizes,
                      Phase phase) {
  std::int64_t bytes = 0;
  for (std::int64_t b : sizes) bytes += b;
  comm.ChargeAllBroadcast(bytes, bytes, phase);
}

/// An allreduce of one `n`-double vector per device.
void AllReduceDoubles(Communicator& comm, std::int64_t n, Phase phase) {
  const auto bytes = n * static_cast<std::int64_t>(sizeof(double));
  comm.ChargeAllReduce(bytes, bytes, phase);
}

// -----------------------------------------------------------------------------

/// Runs `ops` random ring collectives drawn from `rng` on `comm`.
void RunRingSequence(Communicator& comm, Rng& rng, int ops) {
  const auto c = static_cast<std::size_t>(comm.num_devices());
  for (int k = 0; k < ops; ++k) {
    const Phase phase = rng.NextBelow(2) == 0 ? Phase::kTrain : Phase::kSample;
    switch (rng.NextBelow(4)) {
      case 0: {
        const auto rows = static_cast<std::int64_t>(1 + rng.NextBelow(9));
        const auto cols = static_cast<std::int64_t>(1 + rng.NextBelow(12));
        const bool gradient_sync = rng.NextBelow(2) == 1;
        std::vector<Tensor> parts;
        for (std::size_t d = 0; d < c; ++d) parts.push_back(SparseTensor(rows, cols, rng));
        AllReduceTensors(comm, parts, gradient_sync, phase);
        break;
      }
      case 1: {
        const auto cols = static_cast<std::int64_t>(1 + rng.NextBelow(12));
        std::vector<Tensor> parts;
        for (std::size_t d = 0; d < c; ++d) {
          parts.push_back(SparseTensor(static_cast<std::int64_t>(rng.NextBelow(7)), cols, rng));
        }
        BroadcastTensors(comm, parts, phase);
        break;
      }
      case 2: {
        std::vector<std::int64_t> sizes;
        for (std::size_t d = 0; d < c; ++d) {
          sizes.push_back(static_cast<std::int64_t>(8 * rng.NextBelow(50)));
        }
        BroadcastObjects(comm, sizes, phase);
        break;
      }
      default:
        AllReduceDoubles(comm, static_cast<std::int64_t>(1 + rng.NextBelow(40)), phase);
        break;
    }
  }
}

/// FNV-1a over the bit patterns of everything a ring charge can move.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void Bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  }
  void Double(double v) { Bytes(&v, sizeof(v)); }
  void Int(std::int64_t v) { Bytes(&v, sizeof(v)); }
  void Str(const std::string& s) { Bytes(s.data(), s.size()); }
};

/// Folds every device's clock and per-phase busy and comm time, the
/// per-class logical and wire bytes, the collective bytes done and the
/// faults observed into `dg`.
void FoldState(Digest& dg, const SimContext& sim) {
  for (DeviceId d = 0; d < sim.num_devices(); ++d) {
    dg.Double(sim.Now(d));
    for (int p = 0; p < kNumPhases; ++p) {
      dg.Double(sim.PhaseOf(d, static_cast<Phase>(p)));
      dg.Double(sim.CommOf(d, static_cast<Phase>(p)));
    }
  }
  for (int t = 0; t < static_cast<int>(TrafficClass::kNumClasses); ++t) {
    dg.Int(sim.TrafficBytes(static_cast<TrafficClass>(t)));
    dg.Int(sim.TrafficWireBytes(static_cast<TrafficClass>(t)));
  }
  dg.Int(sim.CollectiveBytesDone());
  dg.Int(sim.FaultsObserved());
}

constexpr const char* kRingCounters[] = {
    "comm.allreduce.calls",    "comm.allreduce.bytes",    "comm.allreduce.wire_bytes",
    "comm.allbroadcast.calls", "comm.allbroadcast.bytes", "comm.allbroadcast.wire_bytes"};

std::vector<std::int64_t> RingCounters() {
  std::vector<std::int64_t> v;
  for (const char* name : kRingCounters) v.push_back(obs::Metrics::Global().counter(name).Get());
  return v;
}

std::string Describe(const obs::FlightEvent& e) {
  std::ostringstream os;
  os << std::hexfloat << e.kind << "/" << (e.label ? e.label : "") << "@" << e.sim_s;
  for (int i = 0; i < e.num_args; ++i) {
    const obs::TraceArg& a = e.args[static_cast<std::size_t>(i)];
    os << " " << a.key << "=" << a.num << (a.str ? a.str : "");
  }
  return os.str();
}

/// One seeded draw: cluster, codecs, depth, optional step-tape replay and
/// optional collective fault; returns the digest of everything observed and
/// sets `*failed` when a collective threw.
std::uint64_t RunDraw(std::uint64_t seed, bool with_fault, bool* failed) {
  Rng rng(seed * 7919 + 13);
  const ClusterSpec cluster = DrawCluster(rng);
  constexpr Codec kRingCodecs[] = {Codec::kIdentity, Codec::kBf16, Codec::kInt8};
  constexpr Codec kGradCodecs[] = {Codec::kIdentity, Codec::kBf16, Codec::kInt8,
                                   Codec::kDeltaBitmask};
  const Codec ring_codec = kRingCodecs[rng.NextBelow(3)];
  const Codec grad_codec = kGradCodecs[rng.NextBelow(4)];
  constexpr int kDepths[] = {1, 2, 4};
  const int depth = kDepths[rng.NextBelow(3)];
  const bool replay = !with_fault && rng.NextBelow(2) == 1;
  const int ops = static_cast<int>(3 + rng.NextBelow(6));

  SimContext sim(cluster);
  if (with_fault) {
    FaultPlan plan;
    plan.collectives.push_back({static_cast<std::int64_t>(rng.NextBelow(128))});
    sim.InstallFaults(plan);
  }
  Communicator comm(sim);
  comm.SetWireCodecAll(ring_codec);
  comm.set_grad_codec(grad_codec);
  sim.Advance(static_cast<DeviceId>(rng.NextBelow(
                  static_cast<std::uint64_t>(cluster.num_devices()))),
              1e-4, Phase::kLoad);  // a straggler the first barrier absorbs
  obs::Flight().Clear();
  const std::vector<std::int64_t> before = RingCounters();

  std::string error;
  try {
    if (replay) sim.BeginStepRecord();
    {
      SimContext::PipelinedStepScope scope(sim, depth);
      RunRingSequence(comm, rng, ops);
    }
    if (replay) comm.FastForwardStep(sim.EndStepRecord());
  } catch (const CollectiveError& e) {
    error = e.what();
    sim.ClearBarrierPoison();
  }

  *failed = !error.empty();
  Digest dg;
  dg.Str(error);
  const std::vector<std::int64_t> after = RingCounters();
  for (std::size_t i = 0; i < after.size(); ++i) dg.Int(after[i] - before[i]);
  for (const obs::FlightEvent& e : obs::Flight().Snapshot()) dg.Str(Describe(e));
  FoldState(dg, sim);
  return dg.h;
}

TEST(RingChargeGoldenTest, ChargesMatchTheByteMovingCollectives) {
  Digest all;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    bool failed = true;
    all.Int(static_cast<std::int64_t>(RunDraw(seed, /*with_fault=*/false, &failed)));
    EXPECT_FALSE(failed) << "seed " << seed;
  }
  for (std::uint64_t seed = 100; seed < 105; ++seed) {
    bool failed = false;
    all.Int(static_cast<std::int64_t>(RunDraw(seed, /*with_fault=*/true, &failed)));
    EXPECT_TRUE(failed) << "seed " << seed;
  }
  constexpr std::uint64_t kWant = 0x725d9d10a98f922fULL;  // recorded through the old collectives
  EXPECT_EQ(all.h, kWant) << "digest 0x" << std::hex << all.h;
}

// RingWireBytes: gradient sync prices the grad codec on the content
// (kDeltaBitmask counts nonzeros); other rings price the wire codec on the
// shape (WireBytes: kDeltaBitmask at its dense worst case).
TEST(RingChargeGoldenTest, RingWireBytesPricing) {
  SimContext sim(MultiMachineCluster(2, 2));
  Communicator comm(sim);
  comm.SetWireCodecAll(Codec::kDeltaBitmask);
  comm.set_grad_codec(Codec::kDeltaBitmask);
  Tensor t(4, 16);
  t.at(1, 3) = 1.0f;
  t.at(2, 7) = -2.0f;
  EXPECT_EQ(comm.RingWireBytes(t, /*gradient_sync=*/true), CodecWireBytes(Codec::kDeltaBitmask, t));
  EXPECT_EQ(comm.RingWireBytes(t), CodecWireBytes(Codec::kDeltaBitmask, 4, 16));
  EXPECT_EQ(comm.WireBytes(4, 16), CodecWireBytes(Codec::kDeltaBitmask, 4, 16));
  comm.SetWireCodecAll(Codec::kInt8);
  EXPECT_EQ(comm.RingWireBytes(t), CodecWireBytes(Codec::kInt8, 4, 16));
  EXPECT_EQ(comm.WireBytes(0, 16), 0);
  comm.set_grad_codec(Codec::kBf16);
  EXPECT_EQ(comm.RingWireBytes(t, /*gradient_sync=*/true), CodecWireBytes(Codec::kBf16, 4, 16));
}

// --- the analytic twins ------------------------------------------------------
//
// A ring is charged from its payload (the caller's device-order sum, or the
// broadcast tensors where they lie, priced by RingWireBytes) or from its
// shape alone (rows * cols fp32 bytes under CodecWireBytes(codec, rows,
// cols), the way the profiler and the dry-run price rings they never
// materialize). Under the codecs priced by shape the two must charge
// bit-identical virtual seconds and per-class logical and wire bytes; the
// payload twin is also pinned to a digest recorded through the byte-moving
// AllReduceSum and AllBroadcastTensors it replaced.

constexpr Codec kShapeFaithfulCodecs[] = {Codec::kIdentity, Codec::kBf16, Codec::kInt8};

/// One randomly drawn allreduce + broadcast: every row count is decided
/// before either twin runs, so both charge from identical geometry.
struct Geometry {
  std::int64_t cols = 0;
  std::int64_t allreduce_rows = 0;
  bool gradient_sync = false;
  std::vector<std::int64_t> broadcast_rows;  ///< one tensor per device
};

Geometry DrawGeometry(Rng& rng, std::int32_t devices) {
  Geometry g;
  g.cols = 1 + static_cast<std::int64_t>(rng.NextBelow(12));
  for (std::int32_t d = 0; d < devices; ++d) {
    g.broadcast_rows.push_back(static_cast<std::int64_t>(rng.NextBelow(7)));
  }
  g.allreduce_rows = 1 + static_cast<std::int64_t>(rng.NextBelow(9));
  g.gradient_sync = rng.NextBelow(2) == 1;
  return g;
}

Tensor FilledTensor(std::int64_t rows, std::int64_t cols, Rng& rng) {
  Tensor t(rows, cols);
  for (std::int64_t i = 0; i < t.numel(); ++i) t.data()[i] = rng.NextUniform(-2.0f, 2.0f);
  return t;
}

/// The payload twin: filled tensors, summed and read in place, charged from
/// their content.
void RunPayload(SimContext& sim, Communicator& comm, const Geometry& g, int depth) {
  const auto c = static_cast<std::size_t>(comm.num_devices());
  Rng fill(99);
  SimContext::PipelinedStepScope scope(sim, depth);
  std::vector<Tensor> grads;
  for (std::size_t d = 0; d < c; ++d) grads.push_back(FilledTensor(g.allreduce_rows, g.cols, fill));
  AllReduceTensors(comm, grads, g.gradient_sync, Phase::kTrain);
  std::vector<Tensor> inputs;
  for (std::size_t d = 0; d < c; ++d) {
    inputs.push_back(FilledTensor(g.broadcast_rows[d], g.cols, fill));
  }
  BroadcastTensors(comm, inputs, Phase::kSample);
}

/// The analytic twin: the same geometry, charged from shapes under `codec`
/// (the ring and gradient codec alike).
void RunAnalytic(SimContext& sim, Communicator& comm, const Geometry& g, Codec codec,
                 int depth) {
  SimContext::PipelinedStepScope scope(sim, depth);
  comm.ChargeAllReduce(g.allreduce_rows * g.cols * 4,
                       CodecWireBytes(codec, g.allreduce_rows, g.cols), Phase::kTrain);
  std::int64_t bytes = 0;
  std::int64_t wire = 0;
  for (std::int64_t rows : g.broadcast_rows) {
    bytes += rows * g.cols * 4;
    wire += CodecWireBytes(codec, rows, g.cols);
  }
  comm.ChargeAllBroadcast(bytes, wire, Phase::kSample);
}

/// The text of the CollectiveError `run` throws, or "" when it throws none.
template <typename Fn>
std::string CollectiveErrorOf(Fn run) {
  try {
    run();
  } catch (const CollectiveError& e) {
    return e.what();
  }
  return "";
}

void ExpectBitIdentical(const SimContext& a, const SimContext& b) {
  ASSERT_EQ(a.num_devices(), b.num_devices());
  for (DeviceId d = 0; d < a.num_devices(); ++d) {
    EXPECT_EQ(a.Now(d), b.Now(d)) << "device " << d;
  }
  for (int p = 0; p < kNumPhases; ++p) {
    EXPECT_EQ(a.PhaseMax(static_cast<Phase>(p)), b.PhaseMax(static_cast<Phase>(p)))
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
  Digest all;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    for (const Codec codec : kShapeFaithfulCodecs) {
      for (const int depth : {1, 4}) {
        SCOPED_TRACE("seed=" + std::to_string(seed) + " codec=" +
                     std::string(ToString(codec)) + " depth=" + std::to_string(depth));
        Rng rng(seed * 7919 + 13);
        const ClusterSpec cluster = DrawCluster(rng);
        const Geometry g = DrawGeometry(rng, cluster.num_devices());
        SimContext payload_ctx(cluster);
        SimContext shape_ctx(cluster);
        Communicator payload(payload_ctx);
        Communicator shape(shape_ctx);
        for (Communicator* c : {&payload, &shape}) {
          c->SetWireCodecAll(codec);
          c->set_grad_codec(codec);
        }
        RunPayload(payload_ctx, payload, g, depth);
        RunAnalytic(shape_ctx, shape, g, codec, depth);
        ExpectBitIdentical(payload_ctx, shape_ctx);
        FoldState(all, payload_ctx);
      }
    }
  }
  constexpr std::uint64_t kWant = 0x6e0d8b1728233f58ULL;  // recorded through the old collectives
  EXPECT_EQ(all.h, kWant) << "digest 0x" << std::hex << all.h;
}

// Wire-byte collective-failure thresholds consume the same cumulative
// counters on the analytic path: the fault fires at the same collective
// with the same text, poisons the barrier the same way and leaves
// bit-identical clocks, all as through the byte-moving collectives.
TEST(ScaleParityTest, CollectiveFaultThresholdFiresIdenticallyOnAnalyticPath) {
  Digest all;
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Rng rng(seed + 1);
    const ClusterSpec cluster = DrawCluster(rng);
    const Geometry g = DrawGeometry(rng, cluster.num_devices());
    FaultPlan plan;
    plan.collectives.push_back({/*after_bytes=*/64});
    SimContext payload_ctx(cluster);
    SimContext shape_ctx(cluster);
    payload_ctx.InstallFaults(plan);
    shape_ctx.InstallFaults(plan);
    Communicator payload(payload_ctx);
    Communicator shape(shape_ctx);
    const std::string payload_error =
        CollectiveErrorOf([&] { RunPayload(payload_ctx, payload, g, /*depth=*/1); });
    const std::string shape_error = CollectiveErrorOf(
        [&] { RunAnalytic(shape_ctx, shape, g, Codec::kIdentity, /*depth=*/1); });
    EXPECT_FALSE(payload_error.empty());
    EXPECT_EQ(payload_error, shape_error);
    EXPECT_EQ(payload_ctx.FaultsObserved(), shape_ctx.FaultsObserved());
    EXPECT_GE(payload_ctx.FaultsObserved(), 1);
    payload_ctx.ClearBarrierPoison();
    shape_ctx.ClearBarrierPoison();
    ExpectBitIdentical(payload_ctx, shape_ctx);
    all.Str(payload_error);
    FoldState(all, payload_ctx);
  }
  constexpr std::uint64_t kWant = 0xf91a89d0989659d1ULL;  // recorded through the old collectives
  EXPECT_EQ(all.h, kWant) << "digest 0x" << std::hex << all.h;
}

// Barriers and collective charging at 64 devices must leave the clocks
// bit-identical whether the process runs on one lane or at full width:
// per-device clock commits are one serial loop, and nothing the collectives
// compute may depend on the lane count.
TEST(ScaleParityTest, ParallelClockAdvanceIsBitIdenticalAt64Devices) {
  const ClusterSpec cluster = MultiMachineCluster(16, 4);  // 64 devices
  const auto c = static_cast<std::size_t>(cluster.num_devices());
  Rng rng(4242);
  const auto cols = static_cast<std::int64_t>(1 + rng.NextBelow(12));
  const auto allreduce_rows = static_cast<std::int64_t>(1 + rng.NextBelow(9));
  std::vector<Tensor> broadcast;
  AllToAllTraffic lanes;
  for (std::size_t i = 0; i < c; ++i) {
    broadcast.emplace_back(static_cast<std::int64_t>(rng.NextBelow(7)), cols);
    for (std::size_t j = 0; j < c; ++j) {
      // 0-byte entries exercise the sparse (free-lane) case.
      const auto b = 8 * static_cast<std::int64_t>(rng.NextBelow(40));
      lanes.Add(static_cast<DeviceId>(j), b, b);
    }
    lanes.EndSender();
  }
  const Tensor reduced(allreduce_rows, cols);
  const auto run = [&](Communicator& comm) {
    comm.ChargeAllReduce(reduced.bytes(), comm.RingWireBytes(reduced), Phase::kTrain);
    BroadcastTensors(comm, broadcast, Phase::kSample);
    comm.ChargeAllToAll(lanes, Phase::kSample);
  };
  SimContext serial_ctx(cluster);
  SimContext parallel_ctx(cluster);
  Communicator serial(serial_ctx);
  Communicator parallel(parallel_ctx);
  for (int round = 0; round < 3; ++round) {
    {
      ScopedParallelismLimit one_lane(1);
      run(serial);
    }
    run(parallel);
  }
  {
    ScopedParallelismLimit one_lane(1);
    serial_ctx.BarrierAll(Phase::kTrain);
  }
  parallel_ctx.BarrierAll(Phase::kTrain);
  ExpectBitIdentical(serial_ctx, parallel_ctx);
}

}  // namespace
}  // namespace apt
