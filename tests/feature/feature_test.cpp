// Feature store + cache policy tests: tier classification, gather
// correctness, time charging, and the per-strategy cache rules of §3.2.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <numeric>
#include <string>

#include "core/random.h"
#include "engine/pair_routing.h"
#include "feature/cache_policy.h"
#include "feature/feature_store.h"
#include "graph/generators.h"
#include "obs/metrics.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace apt {
namespace {

Tensor MakeFeatures(NodeId n, std::int64_t d) {
  Tensor t(n, d);
  for (NodeId v = 0; v < n; ++v) {
    for (std::int64_t j = 0; j < d; ++j) {
      t(v, j) = static_cast<float>(v * 1000 + j);
    }
  }
  return t;
}

TEST(FeatureStoreTest, GatherCopiesCorrectRows) {
  SimContext sim(SingleMachineCluster(2));
  const Tensor feats = MakeFeatures(10, 4);
  FeatureStore store(feats, std::vector<MachineId>(10, 0), sim);
  store.ConfigureCaches({{1, 2}, {}}, 16);
  const std::vector<NodeId> nodes{2, 7};
  Tensor out(2, 4);
  const LoadVolume vol = store.Gather(0, nodes, 0, 4, out);
  EXPECT_FLOAT_EQ(out(0, 0), 2000.0f);
  EXPECT_FLOAT_EQ(out(1, 3), 7003.0f);
  EXPECT_EQ(vol.rows[static_cast<int>(FeatureTier::kGpuCache)], 1);  // node 2
  EXPECT_EQ(vol.rows[static_cast<int>(FeatureTier::kLocalCpu)], 1);  // node 7
}

TEST(FeatureStoreTest, ColumnSliceGather) {
  SimContext sim(SingleMachineCluster(1));
  const Tensor feats = MakeFeatures(4, 8);
  FeatureStore store(feats, std::vector<MachineId>(4, 0), sim);
  store.ConfigureCaches({{}}, 0);
  Tensor out(1, 3);
  store.Gather(0, std::vector<NodeId>{3}, 2, 5, out);
  EXPECT_FLOAT_EQ(out(0, 0), 3002.0f);
  EXPECT_FLOAT_EQ(out(0, 2), 3004.0f);
}

TEST(FeatureStoreTest, TierClassificationHierarchy) {
  // 2 machines x 2 GPUs with NVLink: own cache > peer > local cpu > remote.
  ClusterSpec cluster = MultiMachineCluster(2, 2, /*nvlink=*/true);
  SimContext sim(cluster);
  const Tensor feats = MakeFeatures(8, 2);
  // Nodes 0..3 on machine 0, nodes 4..7 on machine 1.
  std::vector<MachineId> placement{0, 0, 0, 0, 1, 1, 1, 1};
  FeatureStore store(feats, placement, sim);
  store.ConfigureCaches({{0}, {1}, {}, {}}, 8);
  EXPECT_EQ(store.Classify(0, 0), FeatureTier::kGpuCache);
  EXPECT_EQ(store.Classify(0, 1), FeatureTier::kPeerGpu);   // cached on dev 1
  EXPECT_EQ(store.Classify(0, 2), FeatureTier::kLocalCpu);  // machine 0 CPU
  EXPECT_EQ(store.Classify(0, 5), FeatureTier::kRemoteCpu); // machine 1 CPU
  // Device 2 (machine 1): node 1 is cached only on machine 0's GPU -> no
  // peer access across machines; falls through to remote CPU.
  EXPECT_EQ(store.Classify(2, 1), FeatureTier::kRemoteCpu);
  EXPECT_EQ(store.Classify(2, 5), FeatureTier::kLocalCpu);
}

TEST(FeatureStoreTest, NoPeerReadsWithoutNvlink) {
  SimContext sim(SingleMachineCluster(2, /*nvlink=*/false));
  const Tensor feats = MakeFeatures(4, 2);
  FeatureStore store(feats, std::vector<MachineId>(4, 0), sim);
  store.ConfigureCaches({{}, {3}}, 8);
  EXPECT_EQ(store.Classify(0, 3), FeatureTier::kLocalCpu);
}

TEST(FeatureStoreTest, LoadSecondsOrdering) {
  SimContext sim(MultiMachineCluster(2, 1));
  const Tensor feats = MakeFeatures(4, 2);
  FeatureStore store(feats, std::vector<MachineId>{0, 0, 1, 1}, sim);
  store.ConfigureCaches({{0}, {}}, 8);
  LoadVolume cache_vol, cpu_vol, remote_vol;
  cache_vol.bytes[static_cast<int>(FeatureTier::kGpuCache)] = 1 << 20;
  cpu_vol.bytes[static_cast<int>(FeatureTier::kLocalCpu)] = 1 << 20;
  remote_vol.bytes[static_cast<int>(FeatureTier::kRemoteCpu)] = 1 << 20;
  EXPECT_LT(store.LoadSeconds(0, cache_vol), store.LoadSeconds(0, cpu_vol));
  EXPECT_LT(store.LoadSeconds(0, cpu_vol), store.LoadSeconds(0, remote_vol));
}

TEST(FeatureStoreTest, GatherChargesLoadPhase) {
  SimContext sim(SingleMachineCluster(1));
  const Tensor feats = MakeFeatures(100, 16);
  FeatureStore store(feats, std::vector<MachineId>(100, 0), sim);
  store.ConfigureCaches({{}}, 0);
  std::vector<NodeId> nodes(100);
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  Tensor out(100, 16);
  store.Gather(0, nodes, 0, 16, out);
  EXPECT_GT(sim.PhaseOf(0, Phase::kLoad), 0.0);
  EXPECT_DOUBLE_EQ(sim.PhaseOf(0, Phase::kTrain), 0.0);
  EXPECT_GT(sim.TrafficBytes(TrafficClass::kLocalCpuGpu), 0);
}

TEST(FeatureStoreTest, CountGatherMatchesGather) {
  SimContext sim(SingleMachineCluster(1));
  const Tensor feats = MakeFeatures(50, 8);
  FeatureStore store(feats, std::vector<MachineId>(50, 0), sim);
  store.ConfigureCaches({{1, 2, 3}}, 32);
  const std::vector<NodeId> nodes{1, 2, 30, 40};
  const LoadVolume counted = store.CountGather(0, nodes, 0, 8);
  Tensor out(4, 8);
  const LoadVolume gathered = store.Gather(0, nodes, 0, 8, out);
  for (int t = 0; t < kNumFeatureTiers; ++t) {
    EXPECT_EQ(counted.bytes[static_cast<std::size_t>(t)],
              gathered.bytes[static_cast<std::size_t>(t)]);
  }
  EXPECT_EQ(counted.TotalBytes(), 4 * 8 * 4);
  EXPECT_EQ(counted.CpuBytes(), 2 * 8 * 4);
}

// A gather is its three public halves: CountGather + Read + ChargeLoad on
// one store must equal Gather on a twin store in values, volumes, device
// clocks, traffic and the feature.* / sim.traffic.* counters, for every
// device's column slice (uneven, some rows served by caches and peers), on
// materialized and procedural stores under identity and int8 storage.
std::vector<std::int64_t> GatherCounters() {
  std::vector<std::int64_t> values;
  auto& m = obs::Metrics::Global();
  values.push_back(m.counter("feature.gathers").Get());
  for (const char* kind : {"rows", "bytes", "wire_bytes"}) {
    for (int t = 0; t < kNumFeatureTiers; ++t) {
      values.push_back(m.counter(std::string("feature.") + kind + "." +
                                 ToString(static_cast<FeatureTier>(t)))
                           .Get());
    }
  }
  for (const char* cls : {"local_cpu_gpu", "peer_gpu", "cross_machine"}) {
    for (const char* kind : {"bytes", "wire_bytes"}) {
      values.push_back(
          m.counter(std::string("sim.traffic.") + cls + "." + kind).Get());
    }
  }
  return values;
}

std::vector<std::int64_t> CounterDelta(const std::vector<std::int64_t>& before) {
  std::vector<std::int64_t> delta = GatherCounters();
  for (std::size_t i = 0; i < delta.size(); ++i) delta[i] -= before[i];
  return delta;
}

void ExpectGatherIsCountReadAndChargeLoad(bool procedural, Codec codec) {
  constexpr NodeId kNodes = 64;
  constexpr std::int64_t kDim = 30;  // 8, 8, 7 and 7 columns over 4 devices
  const ClusterSpec cluster = MultiMachineCluster(2, 2, /*nvlink=*/true);
  std::vector<MachineId> placement(static_cast<std::size_t>(kNodes));
  for (NodeId v = 0; v < kNodes; ++v) placement[static_cast<std::size_t>(v)] = v % 2;
  Tensor feats(kNodes, kDim);
  Rng rng(11);
  UniformInit(feats, rng, -3.0f, 3.0f);
  Rng node_rng(12);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 90; ++i) {
    nodes.push_back(static_cast<NodeId>(node_rng.NextBelow(kNodes)));  // repeats too
  }
  const std::vector<std::vector<NodeId>> caches{{0, 1, 2, 3}, {4, 5}, {}, {6, 7, 8}};
  auto configure = [&](FeatureStore& store) {
    store.SetStorageCodec(codec);
    store.ConfigureCaches(caches, store.CachedRowBytes(kDim / 4));
  };
  SimContext sim_gather(cluster), sim_parts(cluster);
  FeatureStore gather = procedural ? FeatureStore(kNodes, kDim, 5, placement, sim_gather)
                                   : FeatureStore(feats, placement, sim_gather);
  FeatureStore parts = procedural ? FeatureStore(kNodes, kDim, 5, placement, sim_parts)
                                  : FeatureStore(feats, placement, sim_parts);
  configure(gather);
  configure(parts);
  const auto rows = static_cast<std::int64_t>(nodes.size());
  const std::vector<std::int64_t> bounds = SliceBounds(kDim, cluster.num_devices());

  std::vector<Tensor> want;
  std::vector<LoadVolume> want_vols;
  const std::vector<std::int64_t> before_gather = GatherCounters();
  for (DeviceId g = 0; g < cluster.num_devices(); ++g) {
    const std::int64_t lo = bounds[static_cast<std::size_t>(g)];
    const std::int64_t hi = bounds[static_cast<std::size_t>(g) + 1];
    want.emplace_back(rows, hi - lo);
    want_vols.push_back(gather.Gather(g, nodes, lo, hi, want.back()));
  }
  const std::vector<std::int64_t> gather_counters = CounterDelta(before_gather);

  const std::vector<std::int64_t> before_parts = GatherCounters();
  for (DeviceId g = 0; g < cluster.num_devices(); ++g) {
    SCOPED_TRACE(::testing::Message() << "device " << g);
    const std::int64_t lo = bounds[static_cast<std::size_t>(g)];
    const std::int64_t hi = bounds[static_cast<std::size_t>(g) + 1];
    const LoadVolume vol = parts.CountGather(g, nodes, lo, hi);
    Tensor got(rows, hi - lo);
    parts.Read(nodes, lo, hi, got);
    parts.ChargeLoad(g, vol);
    const LoadVolume& ref = want_vols[static_cast<std::size_t>(g)];
    EXPECT_EQ(vol.rows, ref.rows);
    EXPECT_EQ(vol.bytes, ref.bytes);
    EXPECT_EQ(vol.wire_bytes, ref.wire_bytes);
    const Tensor& w = want[static_cast<std::size_t>(g)];
    for (std::int64_t i = 0; i < w.numel(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint32_t>(w.data()[i]),
                std::bit_cast<std::uint32_t>(got.data()[i]))
          << "element " << i;
    }
  }
  EXPECT_EQ(CounterDelta(before_parts), gather_counters);
  for (DeviceId g = 0; g < cluster.num_devices(); ++g) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sim_parts.Now(g)),
              std::bit_cast<std::uint64_t>(sim_gather.Now(g)))
        << "device " << g;
  }
  for (TrafficClass t : {TrafficClass::kLocalCpuGpu, TrafficClass::kPeerGpu,
                         TrafficClass::kCrossMachine}) {
    EXPECT_EQ(sim_parts.TrafficBytes(t), sim_gather.TrafficBytes(t));
  }
}

TEST(FeatureStoreTest, GatherIsCountReadAndChargeLoad) {
  for (bool procedural : {false, true}) {
    for (Codec codec : {Codec::kIdentity, Codec::kInt8}) {
      SCOPED_TRACE(::testing::Message() << (procedural ? "procedural" : "materialized") << " "
                                        << ToString(codec));
      ExpectGatherIsCountReadAndChargeLoad(procedural, codec);
    }
  }
}

TEST(FeatureStoreTest, CacheRegistersMemory) {
  SimContext sim(SingleMachineCluster(2));
  const Tensor feats = MakeFeatures(10, 4);
  FeatureStore store(feats, std::vector<MachineId>(10, 0), sim);
  store.ConfigureCaches({{0, 1, 2}, {5}}, 100);
  EXPECT_EQ(sim.PeakMemory(0), 300);
  EXPECT_EQ(sim.PeakMemory(1), 100);
}

// Tier-classification parity: the per-machine cache-mask table must agree
// with a brute-force scan of the device caches under the tier rule (own
// cache, then an NVLink peer on the same machine, then the local CPU shard,
// then a remote one), for Classify and CountGather alike.
FeatureTier ReferenceTier(const ClusterSpec& cluster,
                          const std::vector<std::vector<NodeId>>& caches,
                          const std::vector<MachineId>& placement, DeviceId dev,
                          NodeId v) {
  const auto cached = [&](DeviceId d) {
    const auto& nodes = caches[static_cast<std::size_t>(d)];
    return std::find(nodes.begin(), nodes.end(), v) != nodes.end();
  };
  if (cached(dev)) return FeatureTier::kGpuCache;
  const MachineId m = cluster.MachineOf(dev);
  if (cluster.machine(m).has_nvlink) {
    const DeviceId base = dev - cluster.LocalIndex(dev);
    for (std::int32_t i = 0; i < cluster.machine(m).num_gpus; ++i) {
      if (base + i != dev && cached(base + i)) return FeatureTier::kPeerGpu;
    }
  }
  return placement[static_cast<std::size_t>(v)] == m ? FeatureTier::kLocalCpu
                                                      : FeatureTier::kRemoteCpu;
}

/// Random per-device caches over [0, n): some devices empty, others with
/// repeated nodes, and some repeating the list of the device before them on
/// their machine (one residence class).
std::vector<std::vector<NodeId>> RandomCaches(Rng& rng, const ClusterSpec& cluster, NodeId n) {
  std::vector<std::vector<NodeId>> caches(static_cast<std::size_t>(cluster.num_devices()));
  for (std::size_t d = 0; d < caches.size(); ++d) {
    auto& nodes = caches[d];
    if (d > 0 && cluster.LocalIndex(static_cast<DeviceId>(d)) > 0 && rng.NextBelow(3) == 0) {
      nodes = caches[d - 1];
      continue;
    }
    if (rng.NextBelow(4) == 0) continue;
    const std::uint64_t count = rng.NextBelow(static_cast<std::uint64_t>(n));
    for (std::uint64_t i = 0; i < count; ++i) {
      nodes.push_back(static_cast<NodeId>(rng.NextBelow(static_cast<std::uint64_t>(n))));
      if (rng.NextBelow(8) == 0) nodes.push_back(nodes.back());
    }
  }
  return caches;
}

void ExpectTierParity(const ClusterSpec& cluster, bool procedural, std::uint64_t seed,
                      Codec codec = Codec::kIdentity) {
  constexpr NodeId kNodes = 300;
  constexpr std::int64_t kDim = 4;
  Rng rng(seed);
  SimContext sim(cluster);
  std::vector<MachineId> placement(static_cast<std::size_t>(kNodes));
  for (auto& m : placement) {
    m = static_cast<MachineId>(rng.NextBelow(static_cast<std::uint64_t>(cluster.num_machines())));
  }
  const Tensor feats = MakeFeatures(kNodes, kDim);
  FeatureStore store = procedural ? FeatureStore(kNodes, kDim, seed, placement, sim)
                                  : FeatureStore(feats, placement, sim);
  store.SetStorageCodec(codec, /*materialize=*/false);
  // NFP's column slices of a dimension narrower than the cluster: devices
  // past kDim count zero-width slices.
  const std::vector<std::int64_t> bounds = SliceBounds(kDim, cluster.num_devices());
  // A second ConfigureCaches replaces the first membership entirely.
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const auto caches = RandomCaches(rng, cluster, kNodes);
    store.ConfigureCaches(caches, store.CachedRowBytes(kDim));
    // One call counts every device's slice of a shared list, classifying each
    // row once per residence class; each device's volume is its own count.
    std::vector<NodeId> shared;
    for (NodeId v = 0; v < kNodes; ++v) shared.insert(shared.end(), rng.NextBelow(3), v);
    const std::vector<LoadVolume> slices = store.CountSlices(shared, bounds);
    ASSERT_EQ(slices.size(), static_cast<std::size_t>(cluster.num_devices()));
    for (DeviceId dev = 0; dev < cluster.num_devices(); ++dev) {
      const auto i = static_cast<std::size_t>(dev);
      const LoadVolume want = store.CountGather(dev, shared, bounds[i], bounds[i + 1]);
      EXPECT_EQ(slices[i].rows, want.rows) << "device " << dev;
      EXPECT_EQ(slices[i].bytes, want.bytes) << "device " << dev;
      EXPECT_EQ(slices[i].wire_bytes, want.wire_bytes) << "device " << dev;
    }
    for (DeviceId dev = 0; dev < cluster.num_devices(); ++dev) {
      LoadVolume expected;
      std::vector<NodeId> nodes;
      for (NodeId v = 0; v < kNodes; ++v) {
        const FeatureTier tier = ReferenceTier(cluster, caches, placement, dev, v);
        ASSERT_EQ(store.Classify(dev, v), tier) << "device " << dev << " node " << v;
        // Gather requests repeat nodes; each repeat counts as a row.
        const std::uint64_t repeats = rng.NextBelow(3);
        for (std::uint64_t r = 0; r < repeats; ++r) {
          nodes.push_back(v);
          expected.rows[static_cast<std::size_t>(tier)] += 1;
        }
      }
      const LoadVolume counted = store.CountGather(dev, nodes, 1, 3);
      for (std::size_t t = 0; t < kNumFeatureTiers; ++t) {
        EXPECT_EQ(counted.rows[t], expected.rows[t]) << "device " << dev << " tier " << t;
        EXPECT_EQ(counted.bytes[t], expected.rows[t] * 2 * 4);
      }
    }
  }
}

TEST(FeatureStoreTest, TierParitySingleMachineNvlink) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ExpectTierParity(SingleMachineCluster(8, /*nvlink=*/true), false, seed);
  }
}

TEST(FeatureStoreTest, TierParitySingleMachinePcie) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ExpectTierParity(SingleMachineCluster(8, /*nvlink=*/false), false, seed);
  }
}

TEST(FeatureStoreTest, TierParityMultiMachine) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ExpectTierParity(MultiMachineCluster(4, 4, /*nvlink=*/true), false, seed);
    ExpectTierParity(MultiMachineCluster(4, 4, /*nvlink=*/false), false, seed);
  }
}

TEST(FeatureStoreTest, TierParityProceduralStore) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ExpectTierParity(MultiMachineCluster(4, 4, /*nvlink=*/true), true, seed);
  }
}

// int8 storage adds a 4-byte scale per row to the wire bytes of every
// slice that has columns.
TEST(FeatureStoreTest, TierParityInt8Storage) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    ExpectTierParity(MultiMachineCluster(4, 4, /*nvlink=*/true), false, seed, Codec::kInt8);
    ExpectTierParity(SingleMachineCluster(8, /*nvlink=*/false), true, seed, Codec::kInt8);
  }
}

// An empty NFP column slice (more devices than feature columns) moves
// nothing: 0 wire bytes and 0 s of load time under every storage codec, in
// CountGather, CountSlices and a Gather's charge alike.
TEST(FeatureStoreTest, EmptySliceCostsNothing) {
  constexpr NodeId kNodes = 100;
  constexpr std::int64_t kDim = 4;
  const ClusterSpec cluster = MultiMachineCluster(2, 4);
  std::vector<NodeId> nodes(kNodes);
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  std::vector<MachineId> placement(kNodes);
  for (NodeId v = 0; v < kNodes; ++v) placement[static_cast<std::size_t>(v)] = v % 2;
  const std::vector<std::int64_t> bounds = SliceBounds(kDim, cluster.num_devices());
  for (int c = 0; c < kNumCodecs; ++c) {
    const auto codec = static_cast<Codec>(c);
    SCOPED_TRACE(ToString(codec));
    SimContext sim(cluster);
    FeatureStore store(kNodes, kDim, /*seed=*/7, placement, sim);
    store.SetStorageCodec(codec, /*materialize=*/false);
    const std::vector<LoadVolume> slices = store.CountSlices(nodes, bounds);
    for (DeviceId dev = kDim; dev < cluster.num_devices(); ++dev) {
      const auto i = static_cast<std::size_t>(dev);
      ASSERT_EQ(bounds[i], bounds[i + 1]) << "device " << dev;
      const LoadVolume empty = store.CountGather(dev, nodes, kDim, kDim);
      EXPECT_EQ(empty.TotalWireBytes(), 0) << "device " << dev;
      EXPECT_EQ(store.LoadSeconds(dev, empty), 0.0) << "device " << dev;
      EXPECT_EQ(slices[i].rows, empty.rows) << "device " << dev;
      EXPECT_EQ(slices[i].wire_bytes, empty.wire_bytes) << "device " << dev;
      Tensor out(kNodes, 0);
      const double before = sim.Now(dev);
      store.Gather(dev, nodes, kDim, kDim, out);
      EXPECT_EQ(sim.Now(dev), before) << "device " << dev;
    }
  }
}

// FNV-1a over the bits of every element of `t`, row-major.
std::uint64_t FloatDigest(const Tensor& t) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    std::uint32_t u = std::bit_cast<std::uint32_t>(t.data()[i]);
    for (int b = 0; b < 4; ++b, u >>= 8) h = (h ^ (u & 0xffu)) * 0x100000001b3ULL;
  }
  return h;
}

// Procedural rows are generated on every gather, so nothing else pins their
// values. These digests were recorded on the scalar row generator: a full-row
// gather and the column window [3, 11), clipped to the row and digested at
// column 1 of a wider buffer of 7s (the layout the digests were recorded
// in), per dim and storage codec. Dims 1, 7, 8 and 9 straddle an 8-column vector; 64
// and 100 hold several.
TEST(ProceduralDigestTest, GathersMatchRecordedDigests) {
  constexpr NodeId kNodes = 100000;
  struct Pinned {
    std::int64_t dim;
    Codec codec;
    std::uint64_t full;
    std::uint64_t window;
  };
  const Pinned pinned[] = {
      {1, Codec::kIdentity, 0xfaffdba5b58ffbd8ULL, 0x45d599bfe21283a5ULL},
      {1, Codec::kBf16, 0xb7a182650d8d70dbULL, 0x45d599bfe21283a5ULL},
      {1, Codec::kInt8, 0x7690f8f03b80c814ULL, 0x45d599bfe21283a5ULL},
      {7, Codec::kIdentity, 0x030dde6ff335201fULL, 0x8044ad2ac7905082ULL},
      {7, Codec::kBf16, 0x95b40ebb62a4e67eULL, 0x74f574cfa2752e86ULL},
      {7, Codec::kInt8, 0x62540bce919c8874ULL, 0xb6a121e3149f9339ULL},
      {8, Codec::kIdentity, 0xd46e3b311041b0c7ULL, 0x197c1136a4125cb6ULL},
      {8, Codec::kBf16, 0x5d6dc035084008cbULL, 0x4e747575ac2bfdf8ULL},
      {8, Codec::kInt8, 0x9f2a7387cd517a48ULL, 0x30ff034a1186f2cbULL},
      {9, Codec::kIdentity, 0x7ee550ca28755783ULL, 0xee117d4546d40609ULL},
      {9, Codec::kBf16, 0xea7ff8d31e90f7b9ULL, 0xcc39eaa4d3db4fcfULL},
      {9, Codec::kInt8, 0xed49bea96d7a9ed6ULL, 0x45cc8d98b2927a34ULL},
      {64, Codec::kIdentity, 0xb2619bd2338698ffULL, 0xefc2d9ef57fa4e92ULL},
      {64, Codec::kBf16, 0x6e9f0c236879ff1fULL, 0xadabb961cf1237deULL},
      {64, Codec::kInt8, 0x46f2346c454cdec7ULL, 0x8b01b3164ac3ef98ULL},
      {100, Codec::kIdentity, 0xfcc8ec5602f231a9ULL, 0x261e6e581a44885aULL},
      {100, Codec::kBf16, 0x8c83674d6f5f0b9eULL, 0x6646ce5e28bd0b7aULL},
      {100, Codec::kInt8, 0xb3a5ee0b812d6f65ULL, 0xbc23fd0684c709faULL},
  };
  const ClusterSpec cluster = MultiMachineCluster(2, 2, /*nvlink=*/true);
  std::vector<MachineId> placement(static_cast<std::size_t>(kNodes));
  for (NodeId v = 0; v < kNodes; ++v) placement[static_cast<std::size_t>(v)] = v % 2;
  Rng rng(23);
  std::vector<NodeId> nodes{0, kNodes - 1};
  for (int i = 0; i < 300; ++i) {
    nodes.push_back(static_cast<NodeId>(rng.NextBelow(kNodes)));
    if (i % 50 == 0) nodes.push_back(nodes.back());
  }
  const auto rows = static_cast<std::int64_t>(nodes.size());
  for (const Pinned& p : pinned) {
    SCOPED_TRACE(::testing::Message() << "dim " << p.dim << " codec "
                                      << static_cast<int>(p.codec));
    SimContext sim(cluster);
    FeatureStore store(kNodes, p.dim, 0x5eed + static_cast<std::uint64_t>(p.dim), placement,
                       sim);
    store.SetStorageCodec(p.codec);
    Tensor full(rows, p.dim);
    store.Gather(1, nodes, 0, p.dim, full);
    const std::int64_t lo = std::min<std::int64_t>(3, p.dim);
    const std::int64_t hi = std::min<std::int64_t>(11, p.dim);
    Tensor slice(rows, hi - lo);
    store.Gather(2, nodes, lo, hi, slice);
    Tensor window(rows, hi - lo + 2);
    window.Fill(7.0f);
    for (std::int64_t r = 0; r < rows; ++r) std::copy_n(slice.row(r), hi - lo, window.row(r) + 1);
    EXPECT_EQ(FloatDigest(full), p.full);
    EXPECT_EQ(FloatDigest(window), p.window);
  }
}

// ---------------------------------------------------------------------------
// Cache policy (paper §3.2 rules).
// ---------------------------------------------------------------------------

struct PolicyFixture {
  NodeId n = 100;
  std::vector<std::int64_t> hotness;
  std::vector<PartId> partition;
  CsrGraph graph;

  PolicyFixture() {
    hotness.resize(static_cast<std::size_t>(n));
    // Node v has hotness n - v (node 0 hottest).
    for (NodeId v = 0; v < n; ++v) hotness[static_cast<std::size_t>(v)] = n - v;
    partition.resize(static_cast<std::size_t>(n));
    for (NodeId v = 0; v < n; ++v) partition[static_cast<std::size_t>(v)] = v % 2;
    // A ring so 1-hop expansion is well-defined.
    std::vector<NodeId> src, dst;
    for (NodeId v = 0; v < n; ++v) {
      src.push_back(v);
      dst.push_back((v + 1) % n);
    }
    graph = BuildCsr(n, src, dst, /*symmetrize=*/true);
  }

  CachePolicyInput Input(Strategy s, std::int64_t budget, std::int64_t dim = 4,
                         std::int32_t devices = 2) const {
    CachePolicyInput in;
    in.strategy = s;
    in.budget_bytes_per_device = budget;
    in.feature_dim = dim;
    in.num_devices = devices;
    in.hotness = hotness;
    in.partition = partition;
    in.graph = &graph;
    return in;
  }
};

TEST(CachePolicyTest, GdpCachesGlobalHottest) {
  PolicyFixture f;
  // Budget for 10 full rows (dim 4 floats = 16 bytes/row).
  const CacheConfig cfg = ConfigureCache(f.Input(Strategy::kGDP, 160));
  ASSERT_EQ(cfg.cache_nodes.size(), 2u);
  EXPECT_EQ(cfg.bytes_per_cached_row, 16);
  for (const auto& nodes : cfg.cache_nodes) {
    ASSERT_EQ(nodes.size(), 10u);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      EXPECT_EQ(nodes[i], static_cast<NodeId>(i));  // hottest = lowest ids
    }
  }
}

TEST(CachePolicyTest, NfpCachesMoreRowsPerByte) {
  PolicyFixture f;
  const CacheConfig gdp = ConfigureCache(f.Input(Strategy::kGDP, 160));
  const CacheConfig nfp = ConfigureCache(f.Input(Strategy::kNFP, 160));
  // NFP stores dim/C per row => 2x the rows for the same budget (C=2).
  EXPECT_EQ(nfp.bytes_per_cached_row, 8);
  EXPECT_EQ(nfp.cache_nodes[0].size(), 2 * gdp.cache_nodes[0].size());
}

TEST(CachePolicyTest, SnpCachesOnlyOwnPartition) {
  PolicyFixture f;
  const CacheConfig cfg = ConfigureCache(f.Input(Strategy::kSNP, 160));
  for (std::int32_t d = 0; d < 2; ++d) {
    for (NodeId v : cfg.cache_nodes[static_cast<std::size_t>(d)]) {
      EXPECT_EQ(f.partition[static_cast<std::size_t>(v)], d);
    }
  }
  // Hottest partition members first: device 0 owns even ids => 0, 2, ...
  EXPECT_EQ(cfg.cache_nodes[0][0], 0);
  EXPECT_EQ(cfg.cache_nodes[1][0], 1);
}

TEST(CachePolicyTest, DnpExpandsToOneHop) {
  PolicyFixture f;
  // Huge budget: everything cacheable. DNP candidates = partition + 1-hop.
  const CacheConfig cfg = ConfigureCache(f.Input(Strategy::kDNP, 1 << 20));
  // On a ring with alternating ownership, partition + 1-hop = all nodes.
  EXPECT_EQ(cfg.cache_nodes[0].size(), static_cast<std::size_t>(f.n));
  const CacheConfig snp = ConfigureCache(f.Input(Strategy::kSNP, 1 << 20));
  // SNP cannot use the excess memory beyond its partition (paper §3.3).
  EXPECT_EQ(snp.cache_nodes[0].size(), static_cast<std::size_t>(f.n) / 2);
}

TEST(CachePolicyTest, ZeroBudgetMeansNoCache) {
  PolicyFixture f;
  for (Strategy s : kAllStrategies) {
    const CacheConfig cfg = ConfigureCache(f.Input(s, 0));
    for (const auto& nodes : cfg.cache_nodes) EXPECT_TRUE(nodes.empty());
  }
}

TEST(CachePolicyTest, BudgetIsRespected) {
  PolicyFixture f;
  for (Strategy s : kAllStrategies) {
    const CacheConfig cfg = ConfigureCache(f.Input(s, 57));  // odd budget
    for (const auto& nodes : cfg.cache_nodes) {
      EXPECT_LE(static_cast<std::int64_t>(nodes.size()) * cfg.bytes_per_cached_row, 57);
    }
  }
}

}  // namespace
}  // namespace apt
