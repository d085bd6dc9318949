// Tests for the APT core: dry-run, cost models, planner, adapter, system.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>

#include "apt/apt_system.h"
#include "obs/trace.h"
#include "runtime/parallel_for.h"
#include "test_util.h"

namespace apt {
namespace {

using ::apt::testing::SmallDataset;

struct PlanFixture {
  Dataset ds = SmallDataset(/*feature_dim=*/64, /*nodes=*/3000);
  ClusterSpec cluster = SingleMachineCluster(4);
  ModelConfig model;
  EngineOptions opts;
  std::vector<PartId> partition;

  PlanFixture() {
    model.kind = ModelKind::kSage;
    model.num_layers = 2;
    model.hidden_dim = 16;
    model.input_dim = ds.feature_dim();
    model.num_classes = ds.num_classes;
    opts.fanouts = {5, 5};
    opts.batch_size_per_device = 128;
    opts.cache_bytes_per_device = 64 << 10;
    MultilevelPartitioner ml;
    partition = ml.Partition(ds.graph, cluster.num_devices());
  }
};

TEST(DryRunTest, CollectsHotnessAndVolumes) {
  PlanFixture f;
  const DryRunResult dry = DryRun(f.ds, f.cluster, f.partition, f.opts, f.model);
  EXPECT_EQ(static_cast<NodeId>(dry.hotness.size()), f.ds.graph.num_nodes());
  std::int64_t total = 0;
  for (auto h : dry.hotness) total += h;
  EXPECT_GT(total, 0);
  for (Strategy s : kAllStrategies) {
    const StrategyDryRun& st = dry.per_strategy[static_cast<std::size_t>(s)];
    EXPECT_GT(st.sample_seconds, 0.0) << ToString(s);
    EXPECT_EQ(st.load.size(), 4u);
    EXPECT_GT(st.load_seconds, 0.0) << ToString(s);
    EXPECT_GT(st.peak_transient_bytes, 0) << ToString(s);
  }
  EXPECT_GE(dry.wall_seconds, 0.0);
}

TEST(DryRunTest, GdpHasNoShuffleOrGraphExchange) {
  PlanFixture f;
  const DryRunResult dry = DryRun(f.ds, f.cluster, f.partition, f.opts, f.model);
  const auto& gdp = dry.per_strategy[static_cast<std::size_t>(Strategy::kGDP)];
  EXPECT_EQ(gdp.graph_shuffle_bytes, 0);
  EXPECT_EQ(gdp.shuffle_bytes, 0);
  EXPECT_DOUBLE_EQ(gdp.shuffle_seconds, 0.0);
}

TEST(DryRunTest, OtherStrategiesDoShuffle) {
  PlanFixture f;
  const DryRunResult dry = DryRun(f.ds, f.cluster, f.partition, f.opts, f.model);
  for (Strategy s : {Strategy::kNFP, Strategy::kSNP, Strategy::kDNP}) {
    const auto& st = dry.per_strategy[static_cast<std::size_t>(s)];
    EXPECT_GT(st.graph_shuffle_bytes, 0) << ToString(s);
    EXPECT_GT(st.shuffle_bytes, 0) << ToString(s);
  }
}

TEST(DryRunTest, DnpShufflesFewerRowsThanNfp) {
  // Paper §3.3: each DNP destination shuffles at most one embedding; NFP
  // shuffles every destination on every device.
  PlanFixture f;
  const DryRunResult dry = DryRun(f.ds, f.cluster, f.partition, f.opts, f.model);
  EXPECT_LT(dry.per_strategy[static_cast<std::size_t>(Strategy::kDNP)].shuffle_bytes,
            dry.per_strategy[static_cast<std::size_t>(Strategy::kNFP)].shuffle_bytes);
}

TEST(DryRunTest, SnpSeesFewerCpuReadsThanGdpWithCache) {
  // With partition-aligned caches, SNP's loads hit the cache more than
  // GDP's scattered K-hop accesses (paper §3.3 cache-locality argument).
  PlanFixture f;
  f.opts.cache_bytes_per_device = 256 << 10;
  const DryRunResult dry = DryRun(f.ds, f.cluster, f.partition, f.opts, f.model);
  std::int64_t snp_cpu = 0, gdp_cpu = 0;
  for (std::int32_t d = 0; d < 4; ++d) {
    snp_cpu += dry.per_strategy[static_cast<std::size_t>(Strategy::kSNP)]
                   .load[static_cast<std::size_t>(d)]
                   .CpuBytes();
    gdp_cpu += dry.per_strategy[static_cast<std::size_t>(Strategy::kGDP)]
                   .load[static_cast<std::size_t>(d)]
                   .CpuBytes();
  }
  EXPECT_LT(snp_cpu, gdp_cpu);
}

/// What one traced training epoch charged: per-device gather rows and bytes,
/// the bytes of the graph-shuffle (kSample) and hidden-shuffle (kTrain)
/// all-to-alls, the payload bytes of the ring collectives in each phase
/// (kTrain includes the gradient sync), and the largest gain of any device's
/// peak memory over its value right after trainer construction.
struct EpochCharges {
  std::vector<double> gather_rows, gather_bytes;
  double graph_a2a_bytes = 0.0, hidden_a2a_bytes = 0.0;
  double graph_ring_bytes = 0.0, train_ring_bytes = 0.0;
  std::int64_t peak_transient_bytes = 0;
};

EpochCharges TraceEpochCharges(const Dataset& ds, TrainerSetup setup) {
  const auto c = static_cast<std::size_t>(setup.cluster.num_devices());
  ParallelTrainer trainer(ds, std::move(setup));
  std::vector<std::int64_t> built_peak;
  for (std::size_t g = 0; g < c; ++g) {
    built_peak.push_back(trainer.sim().PeakMemory(static_cast<DeviceId>(g)));
  }
  obs::Tracer::Global().Clear();
  obs::SetTracingEnabled(true);
  trainer.TrainEpoch(0);
  obs::SetTracingEnabled(false);
  EpochCharges charges{std::vector<double>(c, 0.0), std::vector<double>(c, 0.0)};
  for (std::size_t g = 0; g < c; ++g) {
    charges.peak_transient_bytes =
        std::max(charges.peak_transient_bytes,
                 trainer.sim().PeakMemory(static_cast<DeviceId>(g)) - built_peak[g]);
  }
  for (const obs::TraceEvent& e : obs::Tracer::Global().Drain()) {
    if (e.domain != obs::Domain::kSim) continue;
    const std::string name = e.name;
    const auto arg = [&](const std::string& key) {
      for (int i = 0; i < e.num_args; ++i) {
        if (key == e.args[static_cast<std::size_t>(i)].key) {
          return e.args[static_cast<std::size_t>(i)].num;
        }
      }
      return 0.0;
    };
    if (name == "gather") {
      EXPECT_TRUE(e.tid >= 0 && static_cast<std::size_t>(e.tid) < c) << "lane " << e.tid;
      charges.gather_rows[static_cast<std::size_t>(e.tid)] += arg("rows");
      charges.gather_bytes[static_cast<std::size_t>(e.tid)] += arg("bytes");
    } else if (name == "alltoall") {
      const std::string phase = e.cat;
      if (phase == ToString(Phase::kSample)) charges.graph_a2a_bytes += arg("egress_bytes");
      if (phase == ToString(Phase::kTrain)) charges.hidden_a2a_bytes += arg("egress_bytes");
    } else if ((name == "allreduce" || name == "allbroadcast") && e.tid == 0) {
      // Every participant's slice carries the payload; count device 0's.
      const std::string phase = e.cat;
      if (phase == ToString(Phase::kSample)) charges.graph_ring_bytes += arg("bytes");
      if (phase == ToString(Phase::kTrain)) charges.train_ring_bytes += arg("bytes");
    }
  }
  return charges;
}

/// Trainer setup for `opts` on the dry-run's caches and epoch order.
TrainerSetup DryRunOrderSetup(const ClusterSpec& cluster,
                              const ModelConfig& model, const EngineOptions& opts,
                              const DryRunResult& dry, std::vector<PartId> partition) {
  TrainerSetup setup;
  setup.cluster = cluster;
  setup.model = model;
  setup.engine = opts;
  setup.cache = dry.caches[static_cast<std::size_t>(opts.strategy)];
  setup.feature_placement = FeaturePlacementFromPartition(partition, cluster);
  setup.partition = std::move(partition);
  setup.minibatch_seed = 1234;  // the dry-run's epoch order (MinibatchPlan default)
  return setup;
}

// GDP and NFP are counted on the plans their executors run. At feature dim
// 30 over 4 devices (NFP slices of 8, 8, 7 and 7 columns) every device's
// estimated gather rows and bytes equal what its gathers move in a traced
// training epoch, for GDP and for SAGE and GAT NFP; NFP's graph broadcast
// bytes and its partial allreduce plus gradient broadcast (2 d' 4 bytes per
// shuffled row) equal the ring charges, and the estimated peak transient
// equals the largest peak-memory gain of the epoch.
TEST(DryRunTest, NfpLoadMatchesExecutorGathersOnUnevenSlices) {
  struct Case {
    const char* name;
    Strategy strategy;
    ModelKind kind;
  };
  const Dataset ds = SmallDataset(/*feature_dim=*/30);
  const ClusterSpec cluster = MultiMachineCluster(2, 2);
  MultilevelPartitioner ml;
  const std::vector<PartId> partition = ml.Partition(ds.graph, cluster.num_devices());
  for (const Case& k : {Case{"SAGE NFP", Strategy::kNFP, ModelKind::kSage},
                        Case{"GAT NFP", Strategy::kNFP, ModelKind::kGat},
                        Case{"GDP", Strategy::kGDP, ModelKind::kSage}}) {
    SCOPED_TRACE(k.name);
    ModelConfig model;
    model.kind = k.kind;
    model.num_layers = 2;
    model.hidden_dim = 16;
    model.input_dim = ds.feature_dim();
    model.num_classes = ds.num_classes;
    EngineOptions opts;
    opts.strategy = k.strategy;
    opts.fanouts = {5, 5};
    opts.batch_size_per_device = 128;
    opts.cache_bytes_per_device = 1 << 20;
    opts.seed_assignment = SeedAssignment::kChunked;
    const DryRunResult dry = DryRun(ds, cluster, partition, opts, model);
    const EpochCharges charged =
        TraceEpochCharges(ds, DryRunOrderSetup(cluster, model, opts, dry, partition));
    const StrategyDryRun& est = dry.per_strategy[static_cast<std::size_t>(k.strategy)];
    const bool nfp = k.strategy == Strategy::kNFP;
    for (std::size_t g = 0; g < 4; ++g) {
      const LoadVolume& vol = est.load[g];
      std::int64_t est_rows = 0;
      for (std::int64_t r : vol.rows) est_rows += r;
      EXPECT_GT(est_rows, 0) << "device " << g;
      EXPECT_EQ(static_cast<std::int64_t>(charged.gather_rows[g]), est_rows) << "device " << g;
      EXPECT_EQ(static_cast<std::int64_t>(charged.gather_bytes[g]), vol.TotalBytes())
          << "device " << g;
      const std::int64_t width = nfp ? (g < 2 ? 8 : 7) : 30;
      EXPECT_EQ(vol.TotalBytes(), est_rows * width * 4) << "device " << g;
    }
    // The kTrain rings carry the gradient sync once per step besides NFP's
    // partials and gradients.
    const std::int64_t steps =
        MinibatchPlan(ds.train_nodes, opts.batch_size_per_device, 4).StepsPerEpoch();
    const std::int64_t shuffle_ring_bytes =
        static_cast<std::int64_t>(charged.train_ring_bytes) -
        steps * GnnModel(model).ParamBytes();
    EXPECT_EQ(static_cast<std::int64_t>(charged.graph_ring_bytes), est.graph_shuffle_bytes);
    EXPECT_EQ(shuffle_ring_bytes, 2 * est.shuffle_rows * Layer0OutDim(model) * 4);
    EXPECT_EQ(est.graph_shuffle_bytes > 0, nfp);
    EXPECT_EQ(est.shuffle_rows > 0, nfp);
    EXPECT_EQ(charged.peak_transient_bytes, est.peak_transient_bytes);
  }
}

// SNP and DNP are counted on the routing plans their executors run: every
// device's estimated gather rows and bytes, the graph-shuffle bytes, the
// hidden-shuffle rows and the peak transient bytes equal what a traced
// training epoch charges, for SAGE and GAT SNP, hybrid intra-machine SNP and
// DNP.
TEST(DryRunTest, SnpDnpVolumesMatchExecutorCharges) {
  struct Case {
    const char* name;
    Strategy strategy;
    ModelKind kind;
    bool hybrid;
  };
  const Dataset ds = SmallDataset(/*feature_dim=*/30);
  const ClusterSpec cluster = MultiMachineCluster(2, 2);
  MultilevelPartitioner ml;
  const std::vector<PartId> partition = ml.Partition(ds.graph, cluster.num_devices());
  for (const Case& k : {Case{"SAGE SNP", Strategy::kSNP, ModelKind::kSage, false},
                        Case{"GAT SNP", Strategy::kSNP, ModelKind::kGat, false},
                        Case{"hybrid SNP", Strategy::kSNP, ModelKind::kSage, true},
                        Case{"DNP", Strategy::kDNP, ModelKind::kSage, false}}) {
    SCOPED_TRACE(k.name);
    ModelConfig model;
    model.kind = k.kind;
    model.num_layers = 2;
    model.hidden_dim = 16;
    model.input_dim = ds.feature_dim();
    model.num_classes = ds.num_classes;
    EngineOptions opts;
    opts.strategy = k.strategy;
    opts.hybrid_intra_machine = k.hybrid;
    opts.fanouts = {5, 5};
    opts.batch_size_per_device = 128;
    opts.cache_bytes_per_device = 1 << 20;
    opts.seed_assignment = SeedAssignment::kPartition;
    const DryRunResult dry = DryRun(ds, cluster, partition, opts, model);
    const EpochCharges charged =
        TraceEpochCharges(ds, DryRunOrderSetup(cluster, model, opts, dry, partition));
    const StrategyDryRun& est = dry.per_strategy[static_cast<std::size_t>(k.strategy)];
    for (std::size_t g = 0; g < 4; ++g) {
      std::int64_t est_rows = 0;
      for (std::int64_t r : est.load[g].rows) est_rows += r;
      EXPECT_GT(est_rows, 0) << "device " << g;
      EXPECT_EQ(static_cast<std::int64_t>(charged.gather_rows[g]), est_rows) << "device " << g;
      EXPECT_EQ(static_cast<std::int64_t>(charged.gather_bytes[g]), est.load[g].TotalBytes())
          << "device " << g;
    }
    EXPECT_GT(est.graph_shuffle_bytes, 0);
    EXPECT_EQ(static_cast<std::int64_t>(charged.graph_a2a_bytes), est.graph_shuffle_bytes);
    // Forward and backward each move every shuffled row once.
    const std::int64_t row_bytes = Layer0OutDim(model) * 4;
    EXPECT_GT(est.shuffle_rows, 0);
    EXPECT_EQ(static_cast<std::int64_t>(charged.hidden_a2a_bytes), 2 * est.shuffle_rows * row_bytes);
    EXPECT_EQ(charged.peak_transient_bytes, est.peak_transient_bytes);
  }
}

// SNP and DNP run one step per batch of the longest partition queue, more
// steps than the chunked schedule when training nodes crowd one partition;
// their per-collective latency terms count the steps they run.
TEST(DryRunTest, SnpDnpLatencyTermsCountPartitionQueueSteps) {
  PlanFixture f;
  // Five of every eight nodes live on device 0.
  for (std::size_t v = 0; v < f.partition.size(); ++v) {
    f.partition[v] = v % 8 < 5 ? 0 : static_cast<PartId>(v % 8 - 4);
  }
  const DryRunResult dry = DryRun(f.ds, f.cluster, f.partition, f.opts, f.model);
  const std::int64_t queue_steps = QueueStepsPerEpoch(
      PerDeviceEpochQueues(f.ds.train_nodes, f.partition, 4, /*epoch=*/0),
      f.opts.batch_size_per_device);
  ASSERT_GT(queue_steps,
            MinibatchPlan(f.ds.train_nodes, f.opts.batch_size_per_device, 4).StepsPerEpoch());
  const MachineSpec& m = f.cluster.machines.front();
  const double coll_lat = 3.0 * (m.has_nvlink ? m.nvlink : m.pcie).latency_s;
  const double atob = dry.profile.alltoall_bytes_per_s;
  const double row_bytes = static_cast<double>(Layer0OutDim(f.model)) * 4.0;
  for (Strategy s : {Strategy::kSNP, Strategy::kDNP}) {
    const StrategyDryRun& st = dry.per_strategy[static_cast<std::size_t>(s)];
    const double graph_lat =
        st.graph_shuffle_seconds - static_cast<double>(st.graph_shuffle_bytes) / (atob * 4);
    EXPECT_NEAR(graph_lat, static_cast<double>(queue_steps) * coll_lat, 1e-9 * graph_lat)
        << ToString(s);
    // Without its two latency terms per step, the hidden shuffle's seconds
    // are a byte term: at least zero, at most every shuffled row's bytes.
    const double hidden_bytes_s =
        st.shuffle_seconds - 2.0 * static_cast<double>(queue_steps) * coll_lat;
    EXPECT_GE(hidden_bytes_s, -1e-12) << ToString(s);
    EXPECT_LE(hidden_bytes_s, 2.0 * static_cast<double>(st.shuffle_rows) * row_bytes / atob)
        << ToString(s);
  }
}

TEST(DryRunTest, Layer0OutDimRules) {
  ModelConfig m;
  m.kind = ModelKind::kSage;
  m.num_layers = 3;
  m.hidden_dim = 32;
  m.num_classes = 10;
  EXPECT_EQ(Layer0OutDim(m), 32);
  m.num_layers = 1;
  EXPECT_EQ(Layer0OutDim(m), 10);
  m.kind = ModelKind::kGat;
  m.num_layers = 3;
  m.gat_heads = 4;
  m.hidden_dim = 8;
  EXPECT_EQ(Layer0OutDim(m), 32);
}

TEST(CostModelTest, EstimatesComposeLinearly) {
  PlanFixture f;
  const DryRunResult dry = DryRun(f.ds, f.cluster, f.partition, f.opts, f.model);
  const auto all = EstimateAll(dry);
  for (Strategy s : kAllStrategies) {
    const CostEstimate& e = all[static_cast<std::size_t>(s)];
    EXPECT_EQ(e.strategy, s);
    EXPECT_NEAR(e.Comparable(), e.t_build + e.t_load + e.t_shuffle, 1e-12);
    EXPECT_FALSE(FormatEstimate(e).empty());
  }
}

TEST(PlannerTest, SelectsMinimumComparableCost) {
  PlanFixture f;
  const PlanReport report = MakePlan(f.ds, f.cluster, f.partition, f.opts, f.model);
  double best = 1e100;
  Strategy best_s = Strategy::kGDP;
  for (const CostEstimate& e : report.estimates) {
    if (e.feasible && e.Comparable() < best) {
      best = e.Comparable();
      best_s = e.strategy;
    }
  }
  EXPECT_EQ(report.selected, best_s);
}

TEST(PlannerTest, LargeHiddenDimFavorsGdp) {
  // Fig 8a: with a very large hidden dimension, shuffling hidden embeddings
  // dominates and GDP (which shuffles none) wins.
  PlanFixture f;
  f.model.hidden_dim = 512;
  f.opts.cache_bytes_per_device = 0;
  const PlanReport report = MakePlan(f.ds, f.cluster, f.partition, f.opts, f.model);
  EXPECT_EQ(report.selected, Strategy::kGDP);
}

TEST(PlannerTest, NoCacheFavorsGdp) {
  // Fig 8c: with caches disabled, every strategy pays the same CPU loads but
  // only GDP avoids the shuffle overheads.
  PlanFixture f;
  f.opts.cache_bytes_per_device = 0;
  const PlanReport report = MakePlan(f.ds, f.cluster, f.partition, f.opts, f.model);
  EXPECT_EQ(report.selected, Strategy::kGDP);
}

TEST(AdapterTest, BuildsConsistentSetup) {
  PlanFixture f;
  const DryRunResult dry = DryRun(f.ds, f.cluster, f.partition, f.opts, f.model);
  const TrainerSetup setup = BuildTrainerSetup(f.cluster, f.model, f.opts, f.partition,
                                               dry, Strategy::kSNP);
  EXPECT_EQ(setup.engine.strategy, Strategy::kSNP);
  EXPECT_EQ(setup.engine.seed_assignment, SeedAssignment::kPartition);
  EXPECT_EQ(setup.partition.size(), f.partition.size());
  EXPECT_EQ(setup.cache.cache_nodes.size(), 4u);
  EXPECT_EQ(setup.feature_placement.size(), f.partition.size());

  const TrainerSetup gdp = BuildTrainerSetup(f.cluster, f.model, f.opts, f.partition,
                                             dry, Strategy::kGDP);
  EXPECT_EQ(gdp.engine.seed_assignment, SeedAssignment::kChunked);
}

TEST(AptSystemTest, EndToEndRunImprovesLoss) {
  PlanFixture f;
  AptSystem system(f.ds, f.cluster, f.model, f.opts);
  const PlanReport& plan = system.Plan();
  EXPECT_TRUE(system.planned());
  (void)plan;
  const auto stats = system.Run(3);
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_LT(stats.back().loss, stats.front().loss);
  for (const EpochStats& s : stats) {
    EXPECT_GT(s.sim_seconds, 0.0);
    EXPECT_NEAR(s.sim_seconds,
                s.sample_seconds + s.load_seconds + s.train_seconds, 1e-9);
  }
}

TEST(AptSystemTest, FillsModelDimsFromDataset) {
  PlanFixture f;
  ModelConfig m = f.model;
  m.input_dim = 0;
  m.num_classes = 0;
  AptSystem system(f.ds, f.cluster, m, f.opts);
  auto trainer = system.MakeTrainer(Strategy::kGDP);
  EXPECT_EQ(trainer->setup().model.input_dim, f.ds.feature_dim());
  EXPECT_EQ(trainer->setup().model.num_classes, f.ds.num_classes);
}

TEST(AptSystemTest, CustomPartitionerIsUsed) {
  PlanFixture f;
  RandomPartitioner rnd(123);
  AptSystem system(f.ds, f.cluster, f.model, f.opts, &rnd);
  EXPECT_EQ(system.partition(), rnd.Partition(f.ds.graph, 4));
}

TEST(AptSystemTest, PlanIsCached) {
  PlanFixture f;
  AptSystem system(f.ds, f.cluster, f.model, f.opts);
  const PlanReport& a = system.Plan();
  const PlanReport& b = system.Plan();
  EXPECT_EQ(&a, &b);
}

/// FNV-1a over the bit patterns of everything a plan decides from.
class PlanHasher {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void Add(std::int64_t v) { Add(static_cast<std::uint64_t>(v)); }
  void Add(double v) { Add(std::bit_cast<std::uint64_t>(v)); }
  template <typename T>
  void AddAll(const T& values) {
    Add(static_cast<std::uint64_t>(values.size()));
    for (const auto& v : values) Add(static_cast<std::int64_t>(v));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Digest of a plan: hotness, caches, every per-strategy volume, seconds and
/// transient field, the profile, the estimates and the pick. Host wall time
/// is left out.
std::uint64_t PlanDigest(const PlanReport& plan) {
  const DryRunResult& dry = plan.dryrun;
  PlanHasher h;
  h.AddAll(dry.hotness);
  for (const CacheConfig& cache : dry.caches) {
    for (const auto& nodes : cache.cache_nodes) h.AddAll(nodes);
    h.Add(cache.bytes_per_cached_row);
  }
  for (const StrategyDryRun& st : dry.per_strategy) {
    h.Add(st.sample_seconds);
    h.Add(st.graph_shuffle_bytes);
    h.Add(st.graph_shuffle_seconds);
    for (const LoadVolume& v : st.load) {
      h.AddAll(v.bytes);
      h.AddAll(v.wire_bytes);
      h.AddAll(v.rows);
    }
    h.Add(st.load_seconds);
    h.Add(st.shuffle_rows);
    h.Add(st.shuffle_bytes);
    h.Add(st.shuffle_wire_bytes);
    h.Add(st.shuffle_seconds);
    h.Add(st.codec_seconds);
    h.Add(st.peak_transient_bytes);
    h.Add(st.train_compute_seconds);
    h.Add(static_cast<std::int64_t>(st.fits_memory));
  }
  const CommProfile& p = dry.profile;
  for (double v : {p.alltoall_bytes_per_s, p.allreduce_bytes_per_s,
                   p.broadcast_bytes_per_s, p.local_cpu_bytes_per_s,
                   p.remote_cpu_bytes_per_s, p.gpu_cache_bytes_per_s,
                   p.peer_gpu_bytes_per_s}) {
    h.Add(v);
  }
  h.Add(dry.train_fixed_seconds);
  h.Add(dry.quantized_sync_seconds);
  for (const CostEstimate& e : plan.estimates) {
    for (double v : {e.t_build, e.t_load, e.t_shuffle, e.t_sample, e.t_compute,
                     e.t_fixed, e.t_codec}) {
      h.Add(v);
    }
    h.Add(static_cast<std::int64_t>(e.feasible));
  }
  h.Add(static_cast<std::int64_t>(plan.selected));
  return h.value();
}

/// ps_like at scale 0.1 on two 4-GPU machines: enough devices and steps
/// for the dry-run's per-device sampling to fan out across lanes.
struct PsLikePlanFixture {
  Dataset ds = MakeDataset(PsLikeParams(0.1));
  ClusterSpec cluster = MultiMachineCluster(2, 4);
  ModelConfig model;
  EngineOptions opts;
  std::vector<PartId> partition;

  PsLikePlanFixture() {
    model.kind = ModelKind::kSage;
    model.num_layers = 2;
    model.hidden_dim = 32;
    model.input_dim = ds.feature_dim();
    model.num_classes = ds.num_classes;
    opts.fanouts = {10, 10};
    opts.batch_size_per_device = 32;
    opts.cache_bytes_per_device = ds.FeatureBytes() / 16;
    MultilevelPartitioner ml;
    partition = ml.Partition(ds.graph, cluster.num_devices());
  }
};

TEST(DryRunTest, PlanIsIdenticalAtAnyLaneCount) {
  PsLikePlanFixture f;
  PlanReport serial;
  {
    ScopedParallelismLimit one_lane(1);
    serial = MakePlan(f.ds, f.cluster, f.partition, f.opts, f.model);
  }
  const PlanReport wide = MakePlan(f.ds, f.cluster, f.partition, f.opts, f.model);
  EXPECT_EQ(serial.dryrun.hotness, wide.dryrun.hotness);
  for (Strategy s : kAllStrategies) {
    const auto i = static_cast<std::size_t>(s);
    EXPECT_EQ(serial.dryrun.caches[i].cache_nodes, wide.dryrun.caches[i].cache_nodes)
        << ToString(s);
  }
  EXPECT_EQ(serial.selected, wide.selected);
  EXPECT_EQ(PlanDigest(serial), PlanDigest(wide));
  // Re-recorded when SNP and DNP came to be counted on the executors' routing
  // plans (was 0xc61ba41b4918ffbc); hotness, caches and every GDP and NFP
  // field still equal the values of the dry-run that sampled devices one
  // after another and profiled with byte-moving trials.
  EXPECT_EQ(PlanDigest(wide), 0x869a43144d5ae305ull);
}

// The dry-run's scratch stores come from MakeFeatureStore, so a dataset
// whose features are generated on demand (scale sweeps) plans like the same
// graph given a materialized matrix of the same width: tier classification
// reads placement and cache membership, never values.
TEST(DryRunTest, ProceduralFeaturesCountLikeAMaterializedMatrix) {
  DatasetParams params;
  params.num_nodes = 2000;
  params.num_edges = 16000;
  params.feature_dim = 24;
  const Dataset materialized = MakeDataset(params);
  Dataset procedural = materialized;
  procedural.features = Tensor();
  procedural.procedural_feature_dim = params.feature_dim;
  procedural.procedural_feature_seed = 7;
  ASSERT_EQ(procedural.feature_dim(), materialized.feature_dim());

  const ClusterSpec cluster = MultiMachineCluster(2, 2);
  ModelConfig model;
  model.kind = ModelKind::kSage;
  model.num_layers = 2;
  model.hidden_dim = 16;
  model.input_dim = params.feature_dim;
  model.num_classes = materialized.num_classes;
  EngineOptions opts;
  opts.fanouts = {5, 5};
  opts.batch_size_per_device = 32;
  opts.cache_bytes_per_device = materialized.FeatureBytes() / 8;
  MultilevelPartitioner ml;
  const std::vector<PartId> partition = ml.Partition(materialized.graph, cluster.num_devices());

  const DryRunResult want = DryRun(materialized, cluster, partition, opts, model);
  const DryRunResult got = DryRun(procedural, cluster, partition, opts, model);
  for (Strategy s : kAllStrategies) {
    SCOPED_TRACE(ToString(s));
    const StrategyDryRun& a = want.per_strategy[static_cast<std::size_t>(s)];
    const StrategyDryRun& b = got.per_strategy[static_cast<std::size_t>(s)];
    ASSERT_EQ(a.load.size(), b.load.size());
    for (std::size_t d = 0; d < a.load.size(); ++d) {
      EXPECT_EQ(a.load[d].bytes, b.load[d].bytes) << "device " << d;
      EXPECT_EQ(a.load[d].wire_bytes, b.load[d].wire_bytes) << "device " << d;
      EXPECT_EQ(a.load[d].rows, b.load[d].rows) << "device " << d;
    }
    EXPECT_EQ(a.load_seconds, b.load_seconds);
    EXPECT_EQ(a.graph_shuffle_bytes, b.graph_shuffle_bytes);
    EXPECT_EQ(a.shuffle_rows, b.shuffle_rows);
    EXPECT_EQ(a.shuffle_bytes, b.shuffle_bytes);
    EXPECT_EQ(a.shuffle_wire_bytes, b.shuffle_wire_bytes);
    EXPECT_EQ(a.peak_transient_bytes, b.peak_transient_bytes);
    EXPECT_GT(a.load[0].TotalBytes(), 0);
  }
}

}  // namespace
}  // namespace apt
