// Collective-communication tests: exact data movement, clock semantics,
// and cost-model sanity (inter-machine slower than intra-machine).
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "comm/collectives.h"
#include "comm/profiler.h"
#include "core/error.h"
#include "core/random.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "sim/fault.h"
#include "tensor/ops.h"

namespace apt {
namespace {

Tensor Filled(std::int64_t r, std::int64_t c, float v) {
  Tensor t(r, c);
  t.Fill(v);
  return t;
}

TEST(AllToAllTest, RoutesTensorsExactly) {
  SimContext sim(SingleMachineCluster(3));
  Communicator comm(sim);
  std::vector<std::vector<Tensor>> parts(3, std::vector<Tensor>(3));
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      parts[i][j] = Filled(1, 2, static_cast<float>(10 * i + j));
    }
  }
  const auto recv = comm.AllToAllTensors(parts, Phase::kTrain);
  for (int j = 0; j < 3; ++j) {
    for (int i = 0; i < 3; ++i) {
      EXPECT_FLOAT_EQ(recv[j][i](0, 0), static_cast<float>(10 * i + j));
    }
  }
  EXPECT_GT(sim.MaxNow(), 0.0);
}

TEST(AllToAllTest, EmptyTensorsAreFree) {
  SimContext sim(SingleMachineCluster(2));
  Communicator comm(sim);
  std::vector<std::vector<Tensor>> parts(2, std::vector<Tensor>(2));
  comm.AllToAllTensors(parts, Phase::kTrain);
  // Only barrier synchronization, no transfer time.
  EXPECT_DOUBLE_EQ(sim.MaxNow(), 0.0);
}

TEST(AllToAllTest, ClocksSynchronizedAfter) {
  SimContext sim(SingleMachineCluster(4));
  Communicator comm(sim);
  sim.Advance(2, 1.0, Phase::kSample);  // straggler
  std::vector<std::vector<Tensor>> parts(4, std::vector<Tensor>(4));
  parts[0][1] = Filled(100, 10, 1.0f);
  comm.AllToAllTensors(parts, Phase::kTrain);
  const double t = sim.Now(0);
  for (DeviceId d = 1; d < 4; ++d) EXPECT_DOUBLE_EQ(sim.Now(d), t);
  EXPECT_GE(t, 1.0);
}

TEST(AllToAllVecTest, RoutesVectors) {
  SimContext sim(SingleMachineCluster(2));
  Communicator comm(sim);
  std::vector<std::vector<std::vector<int>>> sends(2,
                                                   std::vector<std::vector<int>>(2));
  sends[0][1] = {1, 2, 3};
  sends[1][0] = {7};
  const auto recv = comm.AllToAllVec(sends, Phase::kSample);
  EXPECT_EQ(recv[1][0], (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(recv[0][1], (std::vector<int>{7}));
  EXPECT_TRUE(recv[0][0].empty());
}

TEST(AllReduceTest, SumsAcrossDevices) {
  SimContext sim(SingleMachineCluster(3));
  Communicator comm(sim);
  std::vector<Tensor> bufs;
  for (int i = 0; i < 3; ++i) bufs.push_back(Filled(2, 2, static_cast<float>(i + 1)));
  std::vector<Tensor*> ptrs{&bufs[0], &bufs[1], &bufs[2]};
  comm.AllReduceSum(ptrs, Phase::kTrain);
  for (int i = 0; i < 3; ++i) {
    EXPECT_FLOAT_EQ(bufs[static_cast<std::size_t>(i)](0, 0), 6.0f);
    EXPECT_FLOAT_EQ(bufs[static_cast<std::size_t>(i)](1, 1), 6.0f);
  }
}

TEST(AllReduceTest, ShapeMismatchThrows) {
  SimContext sim(SingleMachineCluster(2));
  Communicator comm(sim);
  Tensor a(2, 2), b(3, 2);
  std::vector<Tensor*> ptrs{&a, &b};
  EXPECT_THROW(comm.AllReduceSum(ptrs, Phase::kTrain), Error);
}

// Charge parity: charging the reduced tensor directly (callers that summed
// their partials in place) must be indistinguishable from AllReduceSum over
// the partials: same clocks, comm.allreduce.* deltas, flight records, and
// the same CollectiveError under an injected fault, for every wire codec.
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

std::string Describe(const obs::FlightEvent& e) {
  std::ostringstream os;
  os << std::hexfloat << e.kind << "/" << (e.label ? e.label : "") << "@" << e.sim_s;
  for (int i = 0; i < e.num_args; ++i) {
    const obs::TraceArg& a = e.args[static_cast<std::size_t>(i)];
    os << " " << a.key << "=" << a.num << (a.str ? a.str : "");
  }
  return os.str();
}

/// Runs three allreduces of `parts` on a fresh context, either through
/// AllReduceSum or by charging their device-order sum.
AllReduceObservation ObserveAllReduce(const ClusterSpec& cluster, Codec codec,
                                      const std::vector<Tensor>& parts,
                                      bool charge_reduced, bool inject_fault) {
  SimContext sim(cluster);
  if (inject_fault) {
    FaultPlan plan;
    plan.collectives.push_back({/*after_bytes=*/100});
    sim.InstallFaults(plan);
  }
  Communicator comm(sim);
  comm.SetWireCodecAll(codec);
  comm.set_grad_codec(codec);
  sim.Advance(1, 1e-4, Phase::kTrain);  // a straggler the barrier absorbs
  obs::Flight().Clear();
  const std::vector<std::int64_t> before = AllReduceCounters();
  AllReduceObservation out;
  try {
    for (bool gradient_sync : {false, true, false}) {
      if (charge_reduced) {
        Tensor sum = parts[0];
        for (std::size_t i = 1; i < parts.size(); ++i) Axpy(1.0f, parts[i], sum);
        comm.ChargeAllReduceSum(sum, Phase::kTrain, gradient_sync);
      } else {
        std::vector<Tensor> copies = parts;
        std::vector<Tensor*> ptrs;
        for (auto& t : copies) ptrs.push_back(&t);
        comm.AllReduceSum(ptrs, Phase::kTrain, gradient_sync);
      }
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
  for (Codec codec : {Codec::kIdentity, Codec::kBf16, Codec::kInt8, Codec::kDeltaBitmask}) {
    for (bool fault : {false, true}) {
      SCOPED_TRACE(std::string(ToString(codec)) + (fault ? " with fault" : ""));
      const AllReduceObservation moved = ObserveAllReduce(cluster, codec, parts, false, fault);
      const AllReduceObservation charged = ObserveAllReduce(cluster, codec, parts, true, fault);
      EXPECT_EQ(moved.error.empty(), !fault) << moved.error;
      EXPECT_EQ(moved.error, charged.error);
      ASSERT_EQ(moved.clocks.size(), charged.clocks.size());
      for (std::size_t d = 0; d < moved.clocks.size(); ++d) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(moved.clocks[d]),
                  std::bit_cast<std::uint64_t>(charged.clocks[d]))
            << "device " << d;
      }
      EXPECT_EQ(moved.metric_deltas, charged.metric_deltas);
      EXPECT_FALSE(moved.flight.empty());
      EXPECT_EQ(moved.flight, charged.flight);
    }
  }
}

TEST(AllBroadcastTest, EveryoneSeesEverything) {
  SimContext sim(SingleMachineCluster(2));
  Communicator comm(sim);
  std::vector<Tensor> inputs{Filled(1, 1, 3.0f), Filled(1, 1, 4.0f)};
  const auto out = comm.AllBroadcastTensors(inputs, Phase::kSample);
  EXPECT_FLOAT_EQ(out[0](0, 0), 3.0f);
  EXPECT_FLOAT_EQ(out[1](0, 0), 4.0f);
}

TEST(AllBroadcastObjectsTest, ChargesBytesFn) {
  SimContext sim(SingleMachineCluster(2));
  Communicator comm(sim);
  std::vector<std::string> inputs{"hello", "world!"};
  const auto out = comm.AllBroadcastObjects(
      std::move(inputs), [](const std::string& s) { return s.size(); }, Phase::kSample);
  EXPECT_EQ(out[1], "world!");
  EXPECT_GT(sim.MaxNow(), 0.0);
}

TEST(GroupReduceTest, AccumulatesPartialsAtDestination) {
  SimContext sim(SingleMachineCluster(2));
  Communicator comm(sim);
  // Device 0 and device 1 both contribute partial rows for device 0's
  // output rows {0, 1}.
  std::vector<std::vector<Tensor>> parts(2, std::vector<Tensor>(2));
  std::vector<std::vector<std::vector<std::int64_t>>> index(
      2, std::vector<std::vector<std::int64_t>>(2));
  parts[0][0] = Filled(2, 1, 1.0f);
  index[0][0] = {0, 1};
  parts[1][0] = Filled(1, 1, 5.0f);
  index[1][0] = {1};
  Tensor out0(2, 1);
  std::vector<Tensor*> outs{&out0, nullptr};
  comm.GroupReduce(parts, index, outs, Phase::kTrain);
  EXPECT_FLOAT_EQ(out0(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(out0(1, 0), 6.0f);
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
  const std::int64_t rows = 4096;
  SimContext s1(SingleMachineCluster(4));
  {
    Communicator comm(s1);
    std::vector<Tensor> bufs(4, Tensor(rows, 16));
    std::vector<Tensor*> ptrs;
    for (auto& b : bufs) ptrs.push_back(&b);
    comm.AllReduceSum(ptrs, Phase::kTrain);
  }
  SimContext s2(MultiMachineCluster(2, 2));
  {
    Communicator comm(s2);
    std::vector<Tensor> bufs(4, Tensor(rows, 16));
    std::vector<Tensor*> ptrs;
    for (auto& b : bufs) ptrs.push_back(&b);
    comm.AllReduceSum(ptrs, Phase::kTrain);
  }
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
  // per device per trial. Shape-only trials must reproduce every field bit
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
