// Collective-communication tests: the ring and all-to-all charges, clock
// semantics, and cost-model sanity (inter-machine slower than intra-machine).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "comm/collectives.h"
#include "comm/profiler.h"
#include "core/error.h"
#include "core/random.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/parallel_for.h"
#include "sim/fault.h"
#include "tensor/ops.h"

namespace apt {
namespace {

Tensor Filled(std::int64_t r, std::int64_t c, float v) {
  Tensor t(r, c);
  t.Fill(v);
  return t;
}

/// Sparse lanes from a dense per-pair byte matrix (wire == logical bytes).
AllToAllTraffic DenseLanes(const std::vector<std::vector<std::int64_t>>& bytes) {
  AllToAllTraffic traffic;
  for (const std::vector<std::int64_t>& row : bytes) {
    for (std::size_t j = 0; j < row.size(); ++j) {
      traffic.Add(static_cast<DeviceId>(j), row[j], row[j]);
    }
    traffic.EndSender();
  }
  return traffic;
}

TEST(AllToAllTest, EmptyTensorsAreFree) {
  SimContext sim(SingleMachineCluster(2));
  Communicator comm(sim);
  const AllToAllTraffic traffic = DenseLanes({{0, 0}, {0, 0}});
  EXPECT_TRUE(traffic.peer.empty());  // empty lanes are never stored
  comm.ChargeAllToAll(traffic, Phase::kTrain);
  // Only barrier synchronization, no transfer time.
  EXPECT_DOUBLE_EQ(sim.MaxNow(), 0.0);
}

TEST(AllToAllTest, ClocksSynchronizedAfter) {
  SimContext sim(SingleMachineCluster(4));
  Communicator comm(sim);
  sim.Advance(2, 1.0, Phase::kSample);  // straggler
  std::vector<std::vector<std::int64_t>> bytes(4, std::vector<std::int64_t>(4, 0));
  bytes[0][1] = 100 * 10 * 4;
  comm.ChargeAllToAll(DenseLanes(bytes), Phase::kTrain);
  const double t = sim.Now(0);
  for (DeviceId d = 1; d < 4; ++d) EXPECT_DOUBLE_EQ(sim.Now(d), t);
  EXPECT_GE(t, 1.0);
}

// Malformed lanes are rejected before anything is recorded or charged: a
// peer outside [0, C) would index past the per-device arrays, and peers out
// of order would change the order every device sums its lanes in.
TEST(AllToAllTest, RejectsPeerOutOfRange) {
  for (DeviceId bad : {DeviceId{3}, DeviceId{-1}}) {
    SimContext sim(SingleMachineCluster(3));
    Communicator comm(sim);
    AllToAllTraffic traffic;
    traffic.Add(1, 64, 64);
    traffic.EndSender();
    traffic.Add(bad, 64, 64);
    traffic.EndSender();
    traffic.EndSender();
    EXPECT_THROW(comm.ChargeAllToAll(traffic, Phase::kTrain), Error) << bad;
    EXPECT_DOUBLE_EQ(sim.MaxNow(), 0.0);
  }
}

TEST(AllToAllTest, RejectsPeersThatDoNotAscend) {
  SimContext sim(SingleMachineCluster(3));
  Communicator comm(sim);
  const std::int64_t calls_before =
      obs::Metrics::Global().counter("comm.alltoall.calls").Get();
  AllToAllTraffic traffic;
  traffic.Add(2, 64, 64);
  traffic.Add(1, 64, 64);  // descending within sender 0
  traffic.EndSender();
  traffic.EndSender();
  traffic.EndSender();
  EXPECT_THROW(comm.ChargeAllToAll(traffic, Phase::kTrain), Error);
  AllToAllTraffic repeated;
  repeated.EndSender();
  repeated.Add(2, 64, 64);
  repeated.Add(2, 64, 64);  // a repeated peer does not strictly ascend
  repeated.EndSender();
  repeated.EndSender();
  EXPECT_THROW(comm.ChargeAllToAll(repeated, Phase::kTrain), Error);
  EXPECT_DOUBLE_EQ(sim.MaxNow(), 0.0);
  EXPECT_EQ(obs::Metrics::Global().counter("comm.alltoall.calls").Get(), calls_before);
}

/// Seconds of a ring over `comm`'s devices moving factor * (C-1)/C of
/// `bytes` uncompressed: the charge's formula.
double RingSeconds(const Communicator& comm, std::int64_t bytes, double factor) {
  const double c = comm.num_devices();
  const LinkSpec link = comm.RingBottleneck();
  return (c - 1) * link.latency_s +
         factor * (c - 1) / c * static_cast<double>(bytes) / link.bandwidth_bytes_per_s;
}

// The caller forms the device-order sum in place; the communicator charges
// the ring that would have delivered it to every device.
TEST(AllReduceTest, SumsAcrossDevices) {
  SimContext sim(SingleMachineCluster(3));
  Communicator comm(sim);
  std::vector<Tensor> bufs;
  for (int i = 0; i < 3; ++i) bufs.push_back(Filled(2, 2, static_cast<float>(i + 1)));
  Tensor sum = bufs[0];
  for (int i = 1; i < 3; ++i) Axpy(1.0f, bufs[static_cast<std::size_t>(i)], sum);
  const std::int64_t bytes0 = obs::Metrics::Global().counter("comm.allreduce.bytes").Get();
  comm.ChargeAllReduce(sum.bytes(), comm.RingWireBytes(sum), Phase::kTrain);
  EXPECT_FLOAT_EQ(sum(0, 0), 6.0f);
  EXPECT_FLOAT_EQ(sum(1, 1), 6.0f);
  for (DeviceId d = 0; d < 3; ++d) {
    EXPECT_DOUBLE_EQ(sim.Now(d), RingSeconds(comm, sum.bytes(), 2.0)) << d;
  }
  EXPECT_EQ(obs::Metrics::Global().counter("comm.allreduce.bytes").Get() - bytes0,
            static_cast<std::int64_t>(2.0 * 2 / 3 * 16));
}

// Describes one flight record, every number in hexfloat.
std::string Describe(const obs::FlightEvent& e) {
  std::ostringstream os;
  os << std::hexfloat << e.kind << "/" << (e.label ? e.label : "") << "@" << e.sim_s;
  for (int i = 0; i < e.num_args; ++i) {
    const obs::TraceArg& a = e.args[static_cast<std::size_t>(i)];
    os << " " << a.key << "=" << a.num << (a.str ? a.str : "");
  }
  return os.str();
}

// Charge parity: a caller that sums its partials in place and charges the
// reduced tensor must be indistinguishable from the payload-summing
// AllReduceSum the charge replaced: same clocks, comm.allreduce.* deltas,
// flight records, and the same CollectiveError under an injected fault. The
// golden digest was recorded through AllReduceSum over every pair of a ring
// wire codec priced by shape alone and a gradient codec (kDeltaBitmask
// counts the sum's nonzeros); under a kDeltaBitmask wire codec a
// non-gradient ring is priced at its dense worst case instead
// (RingChargeGoldenTest.RingWireBytesPricing).
struct AllReduceObservation {
  std::vector<double> clocks;
  std::vector<std::int64_t> metric_deltas;
  std::vector<std::string> flight;
  std::string error;
};

std::vector<std::int64_t> AllReduceCounters() {
  std::vector<std::int64_t> v;
  for (const char* name : {"comm.allreduce.calls", "comm.allreduce.bytes",
                           "comm.allreduce.wire_bytes"}) {
    v.push_back(obs::Metrics::Global().counter(name).Get());
  }
  return v;
}

/// Runs three allreduces of `parts` on a fresh context, each charging the
/// device-order sum.
AllReduceObservation ObserveAllReduce(const ClusterSpec& cluster, Codec wire_codec,
                                      Codec grad_codec, const std::vector<Tensor>& parts,
                                      bool inject_fault) {
  SimContext sim(cluster);
  if (inject_fault) {
    FaultPlan plan;
    plan.collectives.push_back({/*after_bytes=*/100});
    sim.InstallFaults(plan);
  }
  Communicator comm(sim);
  comm.SetWireCodecAll(wire_codec);
  comm.set_grad_codec(grad_codec);
  sim.Advance(1, 1e-4, Phase::kTrain);  // a straggler the barrier absorbs
  obs::Flight().Clear();
  const std::vector<std::int64_t> before = AllReduceCounters();
  AllReduceObservation out;
  try {
    for (bool gradient_sync : {false, true, false}) {
      Tensor sum = parts[0];
      for (std::size_t i = 1; i < parts.size(); ++i) Axpy(1.0f, parts[i], sum);
      comm.ChargeAllReduce(sum.bytes(), comm.RingWireBytes(sum, gradient_sync), Phase::kTrain);
    }
  } catch (const CollectiveError& e) {
    out.error = e.what();
  }
  const std::vector<std::int64_t> after = AllReduceCounters();
  for (std::size_t i = 0; i < after.size(); ++i) out.metric_deltas.push_back(after[i] - before[i]);
  for (const obs::FlightEvent& e : obs::Flight().Snapshot()) out.flight.push_back(Describe(e));
  for (DeviceId d = 0; d < sim.num_devices(); ++d) out.clocks.push_back(sim.Now(d));
  return out;
}

TEST(AllReduceTest, ChargingTheReducedTensorMatchesAllReduceSum) {
  const ClusterSpec cluster = MultiMachineCluster(2, 2);
  Rng rng(7);
  std::vector<Tensor> parts;
  for (DeviceId d = 0; d < cluster.num_devices(); ++d) {
    Tensor t(5, 6);
    // Sparse content, so kDeltaBitmask wire bytes depend on the sum.
    for (std::int64_t i = 0; i < t.numel(); ++i) {
      if (rng.NextBelow(3) == 0) t.data()[i] = rng.NextUniform(-1.0f, 1.0f);
    }
    parts.push_back(std::move(t));
  }
  // FNV-1a over every observation, in loop order.
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  const auto fold = [&digest](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      digest ^= b[i];
      digest *= 0x100000001b3ULL;
    }
  };
  for (Codec wire_codec : {Codec::kIdentity, Codec::kBf16, Codec::kInt8}) {
    for (Codec grad_codec :
         {Codec::kIdentity, Codec::kBf16, Codec::kInt8, Codec::kDeltaBitmask}) {
      for (bool fault : {false, true}) {
        SCOPED_TRACE(std::string(ToString(wire_codec)) + " ring, " +
                     std::string(ToString(grad_codec)) + " grad" +
                     (fault ? " with fault" : ""));
        const AllReduceObservation o =
            ObserveAllReduce(cluster, wire_codec, grad_codec, parts, fault);
        EXPECT_EQ(o.error.empty(), !fault) << o.error;
        EXPECT_FALSE(o.flight.empty());
        fold(o.error.data(), o.error.size());
        for (double c : o.clocks) fold(&c, sizeof(c));
        for (std::int64_t m : o.metric_deltas) fold(&m, sizeof(m));
        for (const std::string& f : o.flight) fold(f.data(), f.size());
      }
    }
  }
  constexpr std::uint64_t kWant = 0x377cc6d4318ae97aULL;  // recorded through AllReduceSum
  EXPECT_EQ(digest, kWant) << "digest 0x" << std::hex << digest;
}

// --- all-to-all charge parity ------------------------------------------------
//
// The Communicator costs an all-to-all in one sparse sweep over its
// non-empty lanes. The oracle below is the dense per-lane formulation it
// replaced: device i walks every peer j, costing its egress lane (i, j) and
// its ingress lane (j, i) through EffectiveLinkBetween, then counts traffic
// lane by lane and advances its clock. Random sparse and dense traffic,
// with and without codecs (wire != logical), link faults and a collective
// fault that fires mid-call, on 1-100 machines, must charge bit-identical
// clocks, counters, traffic, flight records and link-fault first
// observations.

using LaneMatrix = std::vector<std::vector<std::int64_t>>;

void OracleMaybeFail(SimContext& ctx, std::int64_t wire_bytes,
                     const std::vector<double>& busy, Phase phase,
                     const char* traffic_class) {
  const std::optional<double> fraction = ctx.CollectiveFailureFraction(wire_bytes);
  if (!fraction.has_value()) return;
  const int depth = ctx.PipelineDepth();
  const double microbatch =
      depth > 1 ? std::min<double>(static_cast<double>(depth - 1),
                                   std::floor(*fraction * static_cast<double>(depth)))
                : 0.0;
  obs::Flight().Record("collective.fail", "alltoall", ctx.MaxNow(),
                       {{"bytes", static_cast<double>(wire_bytes), nullptr},
                        {"fraction", *fraction, nullptr},
                        {"class", 0.0, traffic_class},
                        {"microbatch", microbatch, nullptr}});
  for (std::size_t d = 0; d < busy.size(); ++d) {
    ctx.AdvanceComm(static_cast<DeviceId>(d), *fraction * busy[d], phase,
                    "fault.collective",
                    {{"fraction", *fraction, nullptr}, {"op", 0.0, "alltoall"}});
  }
  std::ostringstream os;
  os << "alltoall failed after " << ctx.CollectiveBytesDone()
     << " collective bytes (completed fraction " << *fraction << ")";
  ctx.PoisonBarrier(os.str());
  throw CollectiveError(os.str());
}

void OracleChargeAllToAll(SimContext& ctx, const LaneMatrix& bytes, const LaneMatrix& wire,
                          Phase phase) {
  const auto c = static_cast<std::size_t>(ctx.num_devices());
  std::vector<double> busy(c, 0.0);
  std::vector<std::int64_t> egress_bytes(c, 0), ingress_bytes(c, 0);
  std::vector<std::int64_t> wire_part(c, 0);
  for (std::size_t i = 0; i < c; ++i) {
    double egress = 0.0, ingress = 0.0;
    std::int64_t xcode_bytes = 0;
    for (std::size_t j = 0; j < c; ++j) {
      if (i == j) continue;
      const auto di = static_cast<DeviceId>(i);
      const auto dj = static_cast<DeviceId>(j);
      if (wire[i][j] > 0) {
        egress += ctx.EffectiveLinkBetween(di, dj).TransferSeconds(wire[i][j]);
        egress_bytes[i] += bytes[i][j];
        wire_part[i] += wire[i][j];
        if (wire[i][j] != bytes[i][j]) xcode_bytes += bytes[i][j];
      }
      if (wire[j][i] > 0) {
        ingress += ctx.EffectiveLinkBetween(dj, di).TransferSeconds(wire[j][i]);
        ingress_bytes[i] += bytes[j][i];
        if (wire[j][i] != bytes[j][i]) xcode_bytes += bytes[j][i];
      }
    }
    busy[i] = std::max(egress, ingress) +
              static_cast<double>(xcode_bytes) /
                  ctx.cluster().device(static_cast<DeviceId>(i)).mem_bandwidth_bytes_per_s;
  }
  std::int64_t total_bytes = 0, total_wire = 0;
  for (std::size_t i = 0; i < c; ++i) {
    total_bytes += egress_bytes[i];
    total_wire += wire_part[i];
  }
  const char* a2a_class =
      ToString(ctx.cluster().num_machines() > 1 ? TrafficClass::kCrossMachine
                                                : TrafficClass::kPeerGpu);
  OracleMaybeFail(ctx, total_wire, busy, phase, a2a_class);
  for (std::size_t i = 0; i < c; ++i) {
    for (std::size_t j = 0; j < c; ++j) {
      if (i != j && bytes[i][j] > 0) {
        const auto di = static_cast<DeviceId>(i);
        const auto dj = static_cast<DeviceId>(j);
        ctx.CountTraffic(ctx.ClassifyDeviceLink(di, dj), bytes[i][j], wire[i][j]);
      }
    }
    ctx.AdvanceComm(static_cast<DeviceId>(i), busy[i], phase, "alltoall",
                    {{"egress_bytes", static_cast<double>(egress_bytes[i]), nullptr},
                     {"ingress_bytes", static_cast<double>(ingress_bytes[i]), nullptr},
                     {"participants", static_cast<double>(c), nullptr}});
  }
  obs::Metrics::Global().counter("comm.alltoall.calls").Increment();
  obs::Metrics::Global().counter("comm.alltoall.bytes").Add(total_bytes);
  obs::Metrics::Global().counter("comm.alltoall.wire_bytes").Add(total_wire);
  obs::Flight().Record("collective", "alltoall", ctx.MaxNow(),
                       {{"bytes", static_cast<double>(total_bytes), nullptr},
                        {"wire_bytes", static_cast<double>(total_wire), nullptr},
                        {"participants", static_cast<double>(c), nullptr},
                        {"class", 0.0, a2a_class}});
  ctx.BarrierAll(phase);
}

struct AllToAllCase {
  ClusterSpec cluster;
  LaneMatrix bytes, wire;
  FaultPlan faults;
  std::vector<double> skew;  ///< per-device clock before the call
};

struct AllToAllObservation {
  std::vector<std::uint64_t> clock_bits;  ///< Now, then per-phase time and comm
  std::vector<std::int64_t> counter_deltas;
  std::vector<std::int64_t> traffic;
  std::vector<std::string> flight;
  std::vector<std::string> link_markers;  ///< fault.link first observations
  std::int64_t faults_observed = 0;
  bool poisoned = false;
  std::string error;
};

std::vector<std::int64_t> AllToAllCounters() {
  std::vector<std::int64_t> v;
  for (const char* name :
       {"comm.alltoall.calls", "comm.alltoall.bytes", "comm.alltoall.wire_bytes",
        "sim.traffic.peer_gpu.bytes", "sim.traffic.peer_gpu.wire_bytes",
        "sim.traffic.cross_machine.bytes", "sim.traffic.cross_machine.wire_bytes",
        "fault.link.observed", "fault.collective.injected"}) {
    v.push_back(obs::Metrics::Global().counter(name).Get());
  }
  return v;
}

enum class Charger { kOracle, kSparse };

/// Charges `c`'s all-to-all twice on a fresh context (so the second call
/// sees the first one's clocks and fault state) through `charger`.
AllToAllObservation ObserveAllToAll(const AllToAllCase& c, Charger charger) {
  SimContext sim(c.cluster);
  sim.InstallFaults(c.faults);
  Communicator comm(sim);
  for (DeviceId d = 0; d < sim.num_devices(); ++d) {
    sim.Advance(d, c.skew[static_cast<std::size_t>(d)], Phase::kSample);
  }
  AllToAllTraffic traffic;
  for (std::size_t i = 0; i < c.bytes.size(); ++i) {
    for (std::size_t j = 0; j < c.bytes.size(); ++j) {
      traffic.Add(static_cast<DeviceId>(j), c.bytes[i][j], c.wire[i][j]);
    }
    traffic.EndSender();
  }
  const std::int32_t pid = sim.ObsPid();
  obs::Flight().Clear();
  obs::Tracer::Global().Clear();
  obs::SetTracingEnabled(true);
  const std::vector<std::int64_t> before = AllToAllCounters();
  AllToAllObservation out;
  try {
    for (Phase phase : {Phase::kSample, Phase::kTrain}) {
      switch (charger) {
        case Charger::kOracle:
          OracleChargeAllToAll(sim, c.bytes, c.wire, phase);
          break;
        case Charger::kSparse:
          comm.ChargeAllToAll(traffic, phase);
          break;
      }
    }
  } catch (const CollectiveError& e) {
    out.error = e.what();
  }
  obs::SetTracingEnabled(false);
  const std::vector<std::int64_t> after = AllToAllCounters();
  for (std::size_t i = 0; i < after.size(); ++i) out.counter_deltas.push_back(after[i] - before[i]);
  for (const obs::FlightEvent& e : obs::Flight().Snapshot()) out.flight.push_back(Describe(e));
  for (const obs::TraceEvent& e : obs::Tracer::Global().Drain()) {
    if (e.pid != pid || e.name == nullptr || std::string(e.name) != "fault.link") continue;
    std::ostringstream os;
    os << std::hexfloat << e.tid << "@" << e.ts_us << " " << e.args[0].str << " "
       << e.args[1].num;
    out.link_markers.push_back(os.str());
  }
  for (DeviceId d = 0; d < sim.num_devices(); ++d) {
    out.clock_bits.push_back(std::bit_cast<std::uint64_t>(sim.Now(d)));
    for (int p = 0; p < kNumPhases; ++p) {
      out.clock_bits.push_back(std::bit_cast<std::uint64_t>(sim.PhaseOf(d, static_cast<Phase>(p))));
      out.clock_bits.push_back(std::bit_cast<std::uint64_t>(sim.CommOf(d, static_cast<Phase>(p))));
    }
  }
  for (int cls = 0; cls < static_cast<int>(TrafficClass::kNumClasses); ++cls) {
    out.traffic.push_back(sim.TrafficBytes(static_cast<TrafficClass>(cls)));
    out.traffic.push_back(sim.TrafficWireBytes(static_cast<TrafficClass>(cls)));
  }
  out.faults_observed = sim.FaultsObserved();
  out.poisoned = sim.BarrierPoisoned();
  return out;
}

void ExpectSameObservation(const AllToAllObservation& want, const AllToAllObservation& got) {
  EXPECT_EQ(want.error, got.error);
  EXPECT_EQ(want.clock_bits, got.clock_bits);
  EXPECT_EQ(want.counter_deltas, got.counter_deltas);
  EXPECT_EQ(want.traffic, got.traffic);
  EXPECT_EQ(want.flight, got.flight);
  EXPECT_EQ(want.link_markers, got.link_markers);
  EXPECT_EQ(want.faults_observed, got.faults_observed);
  EXPECT_EQ(want.poisoned, got.poisoned);
}

AllToAllCase RandomAllToAllCase(Rng& rng, std::int32_t machines, std::int32_t gpus,
                                double density, int wire_mode, int fault_mode) {
  AllToAllCase c;
  c.cluster = MultiMachineCluster(machines, gpus, /*nvlink=*/rng.NextBelow(2) == 0);
  const auto n = static_cast<std::size_t>(c.cluster.num_devices());
  c.bytes.assign(n, std::vector<std::int64_t>(n, 0));
  c.wire.assign(n, std::vector<std::int64_t>(n, 0));
  std::int64_t total_wire = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (rng.NextDouble() >= density) continue;
      const auto b = static_cast<std::int64_t>(rng.NextBelow(1 << 20));
      std::int64_t w = b;
      if (wire_mode == 1) w = b / 4 + 4 * static_cast<std::int64_t>(rng.NextBelow(64));
      if (wire_mode == 2) w = static_cast<std::int64_t>(rng.NextBelow(1 << 20));
      c.bytes[i][j] = b;
      c.wire[i][j] = w;
      if (i != j) total_wire += w;
    }
  }
  c.skew.resize(n);
  for (double& t : c.skew) t = rng.NextDouble() * 1e-3;
  if (fault_mode & 1) {
    // Active for part of the skew window, so some lanes see the degraded
    // link and others do not.
    for (TrafficClass cls : {TrafficClass::kPeerGpu, TrafficClass::kCrossMachine}) {
      LinkFault f;
      f.link_class = static_cast<int>(cls);
      f.start_s = 4e-4 + 2e-4 * rng.NextDouble();
      f.bandwidth_factor = 0.25 + 0.5 * rng.NextDouble();
      f.extra_latency_s = 1e-5;
      c.faults.links.push_back(f);
    }
  }
  if (fault_mode & 2) {
    // Fires part-way through the second call.
    c.faults.collectives.push_back(
        {total_wire + static_cast<std::int64_t>(rng.NextDouble() * static_cast<double>(total_wire))});
  }
  return c;
}

TEST(AllToAllChargeParityTest, SparseSweepMatchesPerLaneCharge) {
  struct Shape {
    std::int32_t machines, gpus;
  };
  const Shape shapes[] = {{1, 1}, {1, 4}, {2, 2}, {3, 3}, {17, 4}, {100, 1}, {40, 2}};
  Rng rng(2024);
  int cases = 0, link_markers = 0;
  for (const Shape& shape : shapes) {
    for (double density : {0.05, 0.5, 1.0}) {
      for (int wire_mode : {0, 1, 2}) {
        for (int fault_mode : {0, 1, 2, 3}) {
          const AllToAllCase c = RandomAllToAllCase(rng, shape.machines, shape.gpus, density,
                                                    wire_mode, fault_mode);
          SCOPED_TRACE(::testing::Message()
                       << shape.machines << "x" << shape.gpus << " density " << density
                       << " wire mode " << wire_mode << " faults " << fault_mode);
          const AllToAllObservation want = ObserveAllToAll(c, Charger::kOracle);
          ExpectSameObservation(want, ObserveAllToAll(c, Charger::kSparse));
          if ((fault_mode & 2) && density == 1.0 && c.bytes.size() > 1) {
            EXPECT_FALSE(want.error.empty());  // the fault path did run
          }
          if (!want.link_markers.empty()) ++link_markers;
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 7 * 3 * 3 * 4);
  EXPECT_GT(link_markers, 0);
}

TEST(AllToAllChargeParityTest, SameChargeAtOneLaneAndFullWidth) {
  Rng rng(99);
  const AllToAllCase c = RandomAllToAllCase(rng, 20, 4, 0.3, 1, 1);
  const AllToAllObservation wide = ObserveAllToAll(c, Charger::kSparse);
  ScopedParallelismLimit serial(1);
  ExpectSameObservation(wide, ObserveAllToAll(c, Charger::kSparse));
}

// Every device reads every input in place; the charge moves (C-1)/C of
// their sum to each device, and all leave at the same instant.
TEST(AllBroadcastTest, EveryoneSeesEverything) {
  SimContext sim(SingleMachineCluster(2));
  Communicator comm(sim);
  std::vector<Tensor> inputs{Filled(1, 1, 3.0f), Filled(1, 1, 4.0f)};
  sim.Advance(1, 1e-6, Phase::kSample);  // a straggler the barrier absorbs
  comm.ChargeAllBroadcast(inputs[0].bytes() + inputs[1].bytes(),
                          comm.RingWireBytes(inputs[0]) + comm.RingWireBytes(inputs[1]),
                          Phase::kSample);
  EXPECT_FLOAT_EQ(inputs[0](0, 0), 3.0f);
  EXPECT_FLOAT_EQ(inputs[1](0, 0), 4.0f);
  EXPECT_DOUBLE_EQ(sim.Now(0), sim.Now(1));
  EXPECT_DOUBLE_EQ(sim.Now(0), 1e-6 + RingSeconds(comm, 8, 1.0));
}

TEST(AllBroadcastObjectsTest, ChargesBytesFn) {
  SimContext sim(SingleMachineCluster(2));
  Communicator comm(sim);
  const std::vector<std::string> inputs{"hello", "world!"};
  std::int64_t bytes = 0;
  for (const std::string& s : inputs) bytes += static_cast<std::int64_t>(s.size());
  const std::int64_t bytes0 = obs::Metrics::Global().counter("comm.allbroadcast.bytes").Get();
  comm.ChargeAllBroadcast(bytes, bytes, Phase::kSample);
  EXPECT_EQ(inputs[1], "world!");
  EXPECT_GT(sim.MaxNow(), 0.0);
  EXPECT_EQ(obs::Metrics::Global().counter("comm.allbroadcast.bytes").Get() - bytes0,
            static_cast<std::int64_t>(0.5 * 11));
}

TEST(RingBottleneckTest, CrossMachineDominates) {
  SimContext single(SingleMachineCluster(4));
  SimContext multi(MultiMachineCluster(2, 2));
  Communicator cs(single), cm(multi);
  EXPECT_GT(cs.RingBottleneck().bandwidth_bytes_per_s, 0.0);
  EXPECT_EQ(cm.RingBottleneck().bandwidth_bytes_per_s,
            multi.cluster().network.bandwidth_bytes_per_s);
}

TEST(CollectiveCostTest, CrossMachineAllReduceSlower) {
  const std::int64_t bytes = 4096 * 16 * 4;
  SimContext s1(SingleMachineCluster(4));
  Communicator(s1).ChargeAllReduce(bytes, bytes, Phase::kTrain);
  SimContext s2(MultiMachineCluster(2, 2));
  Communicator(s2).ChargeAllReduce(bytes, bytes, Phase::kTrain);
  EXPECT_GT(s2.MaxNow(), s1.MaxNow());
}

TEST(ProfilerTest, ProfilesAreOrderedSensibly) {
  const CommProfile p = ProfileCommunication(SingleMachineCluster(8));
  EXPECT_GT(p.alltoall_bytes_per_s, 0.0);
  EXPECT_GT(p.allreduce_bytes_per_s, 0.0);
  EXPECT_GT(p.broadcast_bytes_per_s, 0.0);
  // GPU cache reads are far faster than CPU reads over PCIe.
  EXPECT_GT(p.gpu_cache_bytes_per_s, 10 * p.local_cpu_bytes_per_s);
  // Single machine has no remote-CPU channel.
  EXPECT_EQ(p.remote_cpu_bytes_per_s, 0.0);
}

TEST(ProfilerTest, MultiMachineRemoteChannelSlower) {
  const CommProfile p = ProfileCommunication(MultiMachineCluster(2, 4));
  EXPECT_GT(p.remote_cpu_bytes_per_s, 0.0);
  EXPECT_LT(p.remote_cpu_bytes_per_s, p.local_cpu_bytes_per_s * 1.01);
  // Collectives spanning machines are slower than single-machine ones.
  const CommProfile ps = ProfileCommunication(SingleMachineCluster(8));
  EXPECT_LT(p.allreduce_bytes_per_s, ps.allreduce_bytes_per_s * 1.01);
}

TEST(ProfilerTest, NvlinkSpeedsUpPeerReads) {
  const CommProfile with = ProfileCommunication(SingleMachineCluster(4, true));
  const CommProfile without = ProfileCommunication(SingleMachineCluster(4, false));
  EXPECT_GT(with.peer_gpu_bytes_per_s, without.peer_gpu_bytes_per_s);
}

/// A plan whose link faults are active at t = 1 s on all three traffic
/// classes, plus a collective fault at byte 0 that would abort the very
/// first trial if the profiler did not strip it.
FaultPlan ProfilerGoldenFaults() {
  FaultPlan plan;
  LinkFault net;
  net.link_class = static_cast<int>(TrafficClass::kCrossMachine);
  net.start_s = 0.5;
  net.end_s = 2.0;
  net.bandwidth_factor = 0.25;
  net.extra_latency_s = 1e-5;
  LinkFault peer;
  peer.link_class = static_cast<int>(TrafficClass::kPeerGpu);
  peer.bandwidth_factor = 0.5;
  LinkFault pcie;
  pcie.link_class = static_cast<int>(TrafficClass::kLocalCpuGpu);
  pcie.start_s = 0.9;
  pcie.end_s = 1.1;
  pcie.bandwidth_factor = 0.8;
  plan.links = {net, peer, pcie};
  plan.collectives.push_back(CollectiveFault{0});
  return plan;
}

TEST(ProfilerTest, MatchesGoldenProfilesOfTheByteMovingTrials) {
  // `want` was captured from the profiler that allocated and moved 16 MiB
  // per device per trial. Size-priced trials must reproduce every field bit
  // for bit: the link model, not the moved bytes, decides the seconds.
  struct Case {
    const char* name;
    ClusterSpec cluster;
    bool faulted;  ///< profile under ProfilerGoldenFaults() at t = 1 s
    std::array<double, 7> want;
  };
  const std::vector<Case> cases = {
      {"single8_nvlink", SingleMachineCluster(8, true), false,
       {0x1.3affab7174182p+35, 0x1.73396be14acf6p+34, 0x1.7c1d345bbf6a9p+35,
        0x1.641982f8dc184p+33, 0x0p+0, 0x1.176592ep+38, 0x1.4c998dd0477d4p+35}},
      {"single8_pcie", SingleMachineCluster(8, false), false,
       {0x1.59c1da380f49ap+33, 0x1.91d1e2eee0d06p+32, 0x1.96f895aeb264dp+33,
        0x1.641982f8dc184p+33, 0x0p+0, 0x1.176592ep+38, 0x1.641982f8dc184p+33}},
      {"multi2x4", MultiMachineCluster(2, 4), false,
       {0x1.330aa10652c7ap+33, 0x1.5b5498c3c9663p+32, 0x1.6f6e3a728882fp+33,
        0x1.641982f8dc184p+33, 0x1.4180732437728p+33, 0x1.176592ep+38,
        0x1.641982f8dc184p+33}},
      {"multi4x4", MultiMachineCluster(4, 4), false,
       {0x1.06bedfb894da6p+33, 0x1.2e232afd65f87p+32, 0x1.56ef69c03b24ep+33,
        0x1.641982f8dc184p+33, 0x1.4180732437728p+33, 0x1.176592ep+38,
        0x1.641982f8dc184p+33}},
      {"multi2x4_faulted", MultiMachineCluster(2, 4), true,
       {0x1.992ad583e7739p+31, 0x1.6d1544e181d25p+30, 0x1.7437a24c7d1a3p+31,
        0x1.1d1f973c14324p+33, 0x1.45b0ae02ed761p+31, 0x1.176592ep+38,
        0x1.64dcb4437a6eep+32}},
  };
  const std::array<const char*, 7> fields = {
      "alltoall", "allreduce", "broadcast", "local_cpu", "remote_cpu", "gpu_cache",
      "peer_gpu"};
  for (const Case& c : cases) {
    const CommProfile p = c.faulted
                              ? ProfileCommunication(c.cluster, ProfilerGoldenFaults(), 1.0)
                              : ProfileCommunication(c.cluster);
    const std::array<double, 7> got = {
        p.alltoall_bytes_per_s,   p.allreduce_bytes_per_s,  p.broadcast_bytes_per_s,
        p.local_cpu_bytes_per_s,  p.remote_cpu_bytes_per_s, p.gpu_cache_bytes_per_s,
        p.peer_gpu_bytes_per_s};
    for (std::size_t f = 0; f < got.size(); ++f) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got[f]), std::bit_cast<std::uint64_t>(c.want[f]))
          << c.name << " " << fields[f] << ": " << got[f] << " vs " << c.want[f];
    }
  }
}

}  // namespace
}  // namespace apt
