// Engine behaviour tests beyond equivalence: traffic patterns, phase
// accounting, OOM detection, seed assignment, and DDP invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>

#include "engine/exec_common.h"
#include "runtime/parallel_for.h"
#include "sampling/neighbor_sampler.h"
#include "tensor/ops.h"
#include "test_util.h"

namespace apt {
namespace {

using ::apt::testing::MakeTrainer;
using ::apt::testing::MakeTrainerWithOptions;
using ::apt::testing::MaxParamDiff;
using ::apt::testing::SmallDataset;

TEST(EngineTrafficTest, GdpMovesNoPeerTraffic) {
  // GDP's only inter-device communication is the DDP gradient allreduce.
  const Dataset ds = SmallDataset();
  const ClusterSpec cluster = SingleMachineCluster(4);
  auto trainer = MakeTrainer(ds, cluster, Strategy::kGDP);
  trainer->sim().ResetTraffic();
  trainer->TrainEpoch(0);
  const std::int64_t peer = trainer->sim().TrafficBytes(TrafficClass::kPeerGpu);
  // Exactly the packed-gradient ring volume per step (2(C-1)/C * bytes).
  const std::int64_t param_bytes = trainer->model0().ParamBytes();
  const std::int64_t steps = trainer->StepsPerEpoch();
  EXPECT_LE(peer, steps * 2 * param_bytes);
  EXPECT_GT(peer, 0);
}

TEST(EngineTrafficTest, PartitionedStrategiesMovePeerTraffic) {
  const Dataset ds = SmallDataset();
  const ClusterSpec cluster = SingleMachineCluster(4);
  auto gdp = MakeTrainer(ds, cluster, Strategy::kGDP);
  gdp->sim().ResetTraffic();
  gdp->TrainEpoch(0);
  const std::int64_t gdp_peer = gdp->sim().TrafficBytes(TrafficClass::kPeerGpu);
  for (Strategy s : {Strategy::kNFP, Strategy::kSNP, Strategy::kDNP}) {
    auto t = MakeTrainer(ds, cluster, s);
    t->sim().ResetTraffic();
    t->TrainEpoch(0);
    EXPECT_GT(t->sim().TrafficBytes(TrafficClass::kPeerGpu), gdp_peer) << ToString(s);
  }
}

TEST(EngineTrafficTest, MultiMachineCrossTrafficOnlyWhenDistributed) {
  const Dataset ds = SmallDataset();
  auto single = MakeTrainer(ds, SingleMachineCluster(4), Strategy::kDNP);
  single->sim().ResetTraffic();
  single->TrainEpoch(0);
  EXPECT_EQ(single->sim().TrafficBytes(TrafficClass::kCrossMachine), 0);

  auto multi = MakeTrainer(ds, MultiMachineCluster(2, 2), Strategy::kDNP);
  multi->sim().ResetTraffic();
  multi->TrainEpoch(0);
  EXPECT_GT(multi->sim().TrafficBytes(TrafficClass::kCrossMachine), 0);
}

TEST(EnginePhaseTest, BreakdownIsConsistent) {
  const Dataset ds = SmallDataset();
  for (Strategy s : kAllStrategies) {
    auto t = MakeTrainer(ds, SingleMachineCluster(4), s);
    const EpochStats e = t->TrainEpoch(0);
    EXPECT_GT(e.sample_seconds, 0.0) << ToString(s);
    EXPECT_GT(e.load_seconds, 0.0) << ToString(s);
    EXPECT_GT(e.train_seconds, 0.0) << ToString(s);
    EXPECT_NEAR(e.sim_seconds, e.sample_seconds + e.load_seconds + e.train_seconds,
                1e-12);
  }
}

TEST(EnginePhaseTest, EpochTimeIsReproducible) {
  // Simulated time is a pure function of the configuration.
  const Dataset ds = SmallDataset();
  auto a = MakeTrainer(ds, SingleMachineCluster(4), Strategy::kSNP);
  auto b = MakeTrainer(ds, SingleMachineCluster(4), Strategy::kSNP);
  const EpochStats ea = a->TrainEpoch(0);
  const EpochStats eb = b->TrainEpoch(0);
  EXPECT_DOUBLE_EQ(ea.sim_seconds, eb.sim_seconds);
  EXPECT_DOUBLE_EQ(ea.loss, eb.loss);
}

TEST(EngineMemoryTest, NfpGatPeaksAboveGdpGat) {
  // The paper's Fig 10 OOM observation: NFP+attention materializes a
  // projection row for every layer-1 source of EVERY device's graph.
  const Dataset ds = SmallDataset();
  const ClusterSpec cluster = SingleMachineCluster(4);
  // A large hidden dim makes the per-source projection rows dominate.
  auto gdp = MakeTrainer(ds, cluster, Strategy::kGDP, ModelKind::kGat,
                         /*force_chunked=*/true, 1 << 20, {5, 5}, 128,
                         /*hidden=*/32);
  auto nfp = MakeTrainer(ds, cluster, Strategy::kNFP, ModelKind::kGat,
                         /*force_chunked=*/true, 1 << 20, {5, 5}, 128,
                         /*hidden=*/32);
  gdp->TrainEpoch(0);
  nfp->TrainEpoch(0);
  std::int64_t gdp_peak = 0, nfp_peak = 0;
  for (DeviceId d = 0; d < 4; ++d) {
    gdp_peak = std::max(gdp_peak, gdp->sim().PeakMemory(d));
    nfp_peak = std::max(nfp_peak, nfp->sim().PeakMemory(d));
  }
  EXPECT_GT(nfp_peak, gdp_peak);
}

TEST(EngineMemoryTest, TinyDeviceMemoryTriggersOom) {
  const Dataset ds = SmallDataset();
  ClusterSpec cluster = SingleMachineCluster(4);
  cluster.machines[0].gpu.memory_bytes = 1 << 10;  // 1 KB GPU
  auto t = MakeTrainer(ds, cluster, Strategy::kGDP);
  t->TrainEpoch(0);
  EXPECT_TRUE(t->sim().AnyOom());
}

TEST(EngineAccuracyTest, EvaluationImprovesWithTraining) {
  const Dataset ds = SmallDataset();
  auto t = MakeTrainer(ds, SingleMachineCluster(4), Strategy::kDNP,
                       ModelKind::kSage, /*force_chunked=*/false);
  const double before = t->EvaluateAccuracy(ds.val_nodes);
  for (int e = 0; e < 5; ++e) t->TrainEpoch(e);
  const double after = t->EvaluateAccuracy(ds.val_nodes);
  EXPECT_GT(after, before + 0.1);
}

// A dataset whose features are generated on demand evaluates through the
// feature store like the same rows materialized, under identity and lossy
// storage: the rows evaluation reads are the rows training reads.
TEST(EngineAccuracyTest, ProceduralDatasetEvaluatesLikeItsMaterializedRows) {
  const Dataset ds = SmallDataset(/*feature_dim=*/16, /*nodes=*/1200);
  Dataset procedural = ds;
  procedural.features = Tensor();
  procedural.procedural_feature_dim = ds.feature_dim();
  procedural.procedural_feature_seed = 3;
  Dataset materialized = ds;
  const NodeId n = ds.graph.num_nodes();
  {
    SimContext sim(SingleMachineCluster(1));
    const FeatureStore store(n, ds.feature_dim(), procedural.procedural_feature_seed,
                             std::vector<MachineId>(static_cast<std::size_t>(n), 0), sim);
    std::vector<NodeId> all(static_cast<std::size_t>(n));
    std::iota(all.begin(), all.end(), NodeId{0});
    materialized.features = Tensor(n, ds.feature_dim());
    store.Read(all, 0, ds.feature_dim(), materialized.features);
  }
  const ClusterSpec cluster = SingleMachineCluster(2);
  for (Codec storage : {Codec::kIdentity, Codec::kInt8}) {
    SCOPED_TRACE(ToString(storage));
    const auto make = [&](const Dataset& d) {
      return MakeTrainer(d, cluster, Strategy::kGDP, ModelKind::kSage, /*force_chunked=*/true,
                         1 << 16, {5, 5}, /*batch=*/128, /*hidden=*/0, /*recovery=*/{},
                         /*pipeline_depth=*/1, Codec::kIdentity, storage);
    };
    auto a = make(procedural);
    auto b = make(materialized);
    EXPECT_EQ(a->TrainEpoch(0).loss, b->TrainEpoch(0).loss);
    const double acc = a->EvaluateAccuracy(ds.val_nodes);
    EXPECT_EQ(acc, b->EvaluateAccuracy(ds.val_nodes));
    EXPECT_GT(acc, 0.0);
  }
}

// ---------------------------------------------------------------------------
// exec_common helpers.
// ---------------------------------------------------------------------------

struct CommonFixture {
  Dataset ds = SmallDataset();
  SimContext sim{SingleMachineCluster(4)};
  Communicator comm{sim};
  std::vector<PartId> partition;
  std::vector<std::unique_ptr<GnnModel>> models;
  EngineCtx ctx;

  CommonFixture() {
    MultilevelPartitioner ml;
    partition = ml.Partition(ds.graph, 4);
    ModelConfig cfg;
    cfg.kind = ModelKind::kSage;
    cfg.num_layers = 2;
    cfg.input_dim = ds.feature_dim();
    cfg.hidden_dim = 8;
    cfg.num_classes = ds.num_classes;
    for (int i = 0; i < 4; ++i) models.push_back(std::make_unique<GnnModel>(cfg));
    ctx.sim = &sim;
    ctx.comm = &comm;
    ctx.dataset = &ds;
    ctx.partition = &partition;
    ctx.models = &models;
    ctx.opts.fanouts = {3, 3};
  }
};

TEST(ExecCommonTest, ChunkedAssignmentBalanced) {
  CommonFixture f;
  f.ctx.opts.seed_assignment = SeedAssignment::kChunked;
  std::vector<NodeId> seeds(103);
  std::iota(seeds.begin(), seeds.end(), NodeId{0});
  const auto per_dev = AssignSeeds(f.ctx, seeds);
  ASSERT_EQ(per_dev.size(), 4u);
  std::size_t total = 0;
  for (const auto& v : per_dev) {
    EXPECT_LE(v.size(), 26u);
    total += v.size();
  }
  EXPECT_EQ(total, 103u);
}

TEST(ExecCommonTest, PartitionAssignmentFollowsOwnership) {
  CommonFixture f;
  f.ctx.opts.seed_assignment = SeedAssignment::kPartition;
  std::vector<NodeId> seeds{0, 1, 2, 500, 1000, 1500, 1999};
  const auto per_dev = AssignSeeds(f.ctx, seeds);
  for (std::size_t d = 0; d < per_dev.size(); ++d) {
    for (NodeId s : per_dev[d]) {
      EXPECT_EQ(f.partition[static_cast<std::size_t>(s)], static_cast<PartId>(d));
    }
  }
}

TEST(ExecCommonTest, GradientAllReduceEqualizesReplicas) {
  CommonFixture f;
  // Perturb each replica's gradients differently.
  for (std::size_t d = 0; d < f.models.size(); ++d) {
    for (Param* p : f.models[d]->Params()) {
      p->grad.Fill(static_cast<float>(d + 1));
    }
  }
  AllReduceGradients(f.ctx);
  // Sum over devices = 1 + 2 + 3 + 4 = 10 for every element, on every device.
  for (auto& m : f.models) {
    for (Param* p : m->Params()) {
      EXPECT_FLOAT_EQ(p->grad.data()[0], 10.0f);
      EXPECT_FLOAT_EQ(p->grad.data()[p->grad.numel() - 1], 10.0f);
    }
  }
}

TEST(ExecCommonTest, SeedLossGradScalesByDeviceShare) {
  CommonFixture f;
  DeviceBatch batch;
  batch.labels = {1, 2};
  Tensor logits(2, static_cast<std::int64_t>(f.ds.num_classes));
  logits.Fill(0.1f);
  Tensor grad;
  const StepStats s = SeedLossAndGrad(batch, logits, /*total_seeds=*/8, grad);
  EXPECT_EQ(s.num_seeds, 2);
  // Loss is weighted by 2/8 of the device-mean loss.
  EXPECT_NEAR(s.loss, std::log(static_cast<double>(f.ds.num_classes)) * 0.25, 1e-5);
  // Gradient rows sum to ~0 per row (softmax property) and are scaled.
  double row_sum = 0.0;
  for (std::int64_t j = 0; j < grad.cols(); ++j) row_sum += grad(0, j);
  EXPECT_NEAR(row_sum, 0.0, 1e-6);
}

TEST(ExecCommonTest, EmptyBatchYieldsZeroStats) {
  CommonFixture f;
  DeviceBatch batch;
  Tensor logits(0, 4);
  Tensor grad;
  const StepStats s = SeedLossAndGrad(batch, logits, 8, grad);
  EXPECT_EQ(s.num_seeds, 0);
  EXPECT_EQ(s.loss, 0.0);
  EXPECT_EQ(grad.rows(), 0);
}

TEST(ExecCommonTest, SampleSecondsGrowWithFanout) {
  CommonFixture f;
  NeighborSampler light(f.ds.graph, {2, 2});
  NeighborSampler heavy(f.ds.graph, {8, 8});
  Rng rng(3);
  std::vector<NodeId> seeds(64);
  std::iota(seeds.begin(), seeds.end(), NodeId{100});
  const SampledBatch lb = light.Sample(seeds, rng);
  const SampledBatch hb = heavy.Sample(seeds, rng);
  const ClusterSpec& cluster = f.ctx.sim->cluster();
  EXPECT_GT(SampleSeconds(cluster, 0, hb), 2 * SampleSeconds(cluster, 0, lb));
}

// Sampling fans devices out over the fork-join pool, each device filling
// its own batch slot from its own forked stream, then advances the clocks
// in device order: batches, clocks and trained bits must not depend on the
// lane count.
TEST(ExecCommonTest, SampleDeviceBatchesMatchAtOneLaneAndFullWidth) {
  std::vector<std::vector<NodeId>> seeds(4);
  for (std::size_t d = 0; d < seeds.size(); ++d) {
    for (NodeId s = 0; s < 40; ++s) seeds[d].push_back(static_cast<NodeId>(d) * 400 + 7 * s);
  }
  const auto sample = [&](CommonFixture& f) {
    Rng step_rng = Rng(11).Fork(3);
    return SampleDeviceBatches(f.ctx, seeds, step_rng);
  };
  CommonFixture wide_fixture, serial_fixture;
  const std::vector<DeviceBatch> wide = sample(wide_fixture);
  std::vector<DeviceBatch> serial;
  {
    ScopedParallelismLimit one_lane(1);
    serial = sample(serial_fixture);
  }
  ASSERT_EQ(wide.size(), serial.size());
  for (std::size_t d = 0; d < wide.size(); ++d) {
    EXPECT_EQ(wide[d].labels, serial[d].labels);
    ASSERT_EQ(wide[d].sample.blocks.size(), serial[d].sample.blocks.size());
    for (std::size_t k = 0; k < wide[d].sample.blocks.size(); ++k) {
      const Block& a = wide[d].sample.blocks[k];
      const Block& b = serial[d].sample.blocks[k];
      EXPECT_EQ(a.num_dst, b.num_dst);
      EXPECT_EQ(a.src_nodes, b.src_nodes);
      EXPECT_EQ(a.indptr, b.indptr);
      EXPECT_EQ(a.col, b.col);
    }
    const auto dev = static_cast<DeviceId>(d);
    EXPECT_GT(wide_fixture.sim.Now(dev), 0.0);
    EXPECT_EQ(wide_fixture.sim.Now(dev), serial_fixture.sim.Now(dev));
  }
}

// FNV-1a over the bytes of a value, a string literal (null-safe) and the
// simulated record types the lane-count test digests.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void Bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ULL;
  }
  template <typename T>
  void Add(const T& v) {
    Bytes(&v, sizeof(v));
  }
  void Str(const char* s) {
    if (s == nullptr) return Add('\1');
    Bytes(s, std::strlen(s) + 1);
  }
  template <typename T>
  void Vec(const std::vector<T>& v) {
    Add(v.size());
    Bytes(v.data(), v.size() * sizeof(T));
  }
  void Args(const obs::TraceArg* args, int n) {
    for (int i = 0; i < n; ++i) {
      Str(args[i].key);
      Add(args[i].num);
      Str(args[i].str);
    }
  }
};

std::uint64_t TapeDigest(const StepTape& tape) {
  Digest g;
  for (const StepTapeOp& op : tape.ops) {
    g.Add(op.kind);
    g.Add(op.inner);
    g.Add(op.dev);
    g.Add(op.phase);
    g.Add(op.comm);
    g.Add(op.dt);
    g.Add(op.flops);
    g.Str(op.label);
    g.Args(op.args.data(), op.num_args);
    g.Add(op.depth);
    g.Add(op.cls);
    g.Add(op.bytes);
    g.Add(op.wire_bytes);
    g.Add(op.factor);
    g.Vec(op.a2a.indptr);
    g.Vec(op.a2a.peer);
    g.Vec(op.a2a.bytes);
    g.Vec(op.a2a.wire);
  }
  return g.h;
}

// Every simulated-clock event on track `pid`, in emission order.
std::uint64_t SimTraceDigest(const std::vector<obs::TraceEvent>& events, std::int32_t pid) {
  Digest g;
  for (const obs::TraceEvent& e : events) {
    if (e.domain != obs::Domain::kSim || e.pid != pid) continue;
    g.Add(e.tid);
    g.Add(e.ph);
    g.Add(e.ts_us);
    g.Add(e.dur_us);
    g.Str(e.name);
    g.Str(e.cat);
    g.Args(e.args.data(), e.num_args);
  }
  return g.h;
}

// The cases the lane-count and charge-pin tests train: every strategy under
// SAGE and GAT, serial and pipelined, the quantized layer-0 path, and sampled
// execution (whose trace includes the fast-forwarded replays).
struct ChargeCase {
  Strategy strategy;
  ModelKind kind;
  int depth;
  Codec wire = Codec::kIdentity;
  std::int64_t sample_period = 1;
};

std::vector<ChargeCase> ChargeCases() {
  std::vector<ChargeCase> cases;
  for (Strategy strategy : kAllStrategies) {
    for (ModelKind kind : {ModelKind::kSage, ModelKind::kGat}) {
      for (int depth : {1, 4}) cases.push_back({strategy, kind, depth});
    }
  }
  cases.push_back({Strategy::kGDP, ModelKind::kSage, 1, Codec::kInt8});
  cases.push_back({Strategy::kDNP, ModelKind::kSage, 1, Codec::kInt8});
  cases.push_back({Strategy::kSNP, ModelKind::kGat, 1, Codec::kIdentity, 2});
  return cases;
}

::testing::Message Describe(const ChargeCase& k) {
  return ::testing::Message() << ToString(k.strategy) << " " << ToString(k.kind) << " depth "
                              << k.depth << " wire " << ToString(k.wire) << " period "
                              << k.sample_period;
}

struct ChargeRun {
  std::unique_ptr<ParallelTrainer> trainer;
  EpochStats stats;
  std::uint64_t tape = 0;
  std::uint64_t trace = 0;
};

// One epoch of case `k` on the small dataset, 2 machines x 2 devices, with
// its step tape and simulated trace digested. Tracing must be on.
ChargeRun TrainChargeCase(const Dataset& ds, const ClusterSpec& cluster, const ChargeCase& k) {
  EngineOptions opts;
  opts.strategy = k.strategy;
  opts.fanouts = {5, 5};
  opts.batch_size_per_device = k.sample_period > 1 ? 32 : 128;
  opts.cache_bytes_per_device = 1 << 20;
  opts.seed_assignment = SeedAssignment::kChunked;
  opts.pipeline_depth = k.depth;
  opts.wire_codec = k.wire;
  opts.scale_sample_period = k.sample_period;
  ChargeRun run;
  run.trainer = MakeTrainerWithOptions(ds, cluster, opts, /*hidden=*/0, k.kind);
  SimContext& sim = run.trainer->sim();
  obs::Tracer::Global().Clear();
  // A sampled run records and replays its own probe tapes; the rest
  // record the whole epoch as one tape.
  const bool record = k.sample_period == 1;
  if (record) sim.BeginStepRecord();
  run.stats = run.trainer->TrainEpoch(0);
  if (record) run.tape = TapeDigest(sim.EndStepRecord());
  run.trace = SimTraceDigest(obs::Tracer::Global().Drain(), sim.ObsPid());
  return run;
}

// Each step's per-device model passes run as one ParallelFor over devices
// and every charge follows serially in device order, so a run at full width
// must be bit-identical to a one-lane run: loss, weights, every device
// clock, the step tape and the simulated trace.
TEST(ExecCommonTest, TrainingMatchesAtOneLaneAndFullWidth) {
  const Dataset ds = SmallDataset();
  const ClusterSpec cluster = MultiMachineCluster(2, 2);
  const bool was_tracing = obs::TracingEnabled();
  obs::SetTracingEnabled(true);
  for (const ChargeCase& k : ChargeCases()) {
    SCOPED_TRACE(Describe(k));
    const ChargeRun wide = TrainChargeCase(ds, cluster, k);
    ChargeRun serial;
    {
      ScopedParallelismLimit one_lane(1);
      serial = TrainChargeCase(ds, cluster, k);
    }
    if (k.sample_period > 1) {
      EXPECT_GT(wide.stats.steps_fast_forwarded, 0);
    }
    EXPECT_EQ(wide.stats.loss, serial.stats.loss);
    for (DeviceId d = 0; d < cluster.num_devices(); ++d) {
      EXPECT_EQ(wide.trainer->sim().Now(d), serial.trainer->sim().Now(d)) << "device " << d;
    }
    EXPECT_EQ(MaxParamDiff(wide.trainer->model0(), serial.trainer->model0()), 0.0);
    EXPECT_EQ(wide.tape, serial.tape);
    EXPECT_EQ(wide.trace, serial.trace);
    EXPECT_NE(wide.trace, Digest{}.h);
  }
  obs::SetTracingEnabled(was_tracing);
}

// Pins every case's step tape and simulated trace to fixed digests, so a
// charge that moves to another place in a step's sequence fails even when
// every device's clock ends where it did. Charges are priced from shapes,
// bytes and flops, never from trained values, so the digests do not depend
// on the GEMM's rounding. A sampled run records no whole-epoch tape, so its
// tape digest is 0.
TEST(ExecCommonTest, ChargeOrderIsPinned) {
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> pinned = {
      {0x4521231f510a0ea6ULL, 0x1a7cfa2e6330b422ULL},
      {0x1d4bb2a2991a7e52ULL, 0x08456826abb7e49cULL},
      {0x61a245a5d15c824eULL, 0x4183bc3e8e033b50ULL},
      {0xd627fbd6f82c657aULL, 0x3ea7f631157c6251ULL},
      {0x6d77965d1f5f4f76ULL, 0x92ad60ec64a0bdd2ULL},
      {0xf2c33fbdba513676ULL, 0x1b179d4d9d1fef43ULL},
      {0x654b56ce24b31a17ULL, 0x9d4228faeda6ce9fULL},
      {0x9663bfd78d7b4a83ULL, 0xd88f34f2e7c221b4ULL},
      {0x8a9996e1a5385537ULL, 0xb6887c8dba912105ULL},
      {0x8d63ff47a1651b37ULL, 0x795689374dc85061ULL},
      {0x56e05b40beec8ebcULL, 0x382f5ead3907190dULL},
      {0xe218100fd6c94150ULL, 0x974579e066290940ULL},
      {0xd86c73fe956b0bb9ULL, 0x9827723a7c5ec9b4ULL},
      {0x46c81d9106b20839ULL, 0x8d98239ad92a03b0ULL},
      {0x7978fc953c0acf66ULL, 0x112d4f9117fce8c4ULL},
      {0x343503df6fc67b56ULL, 0x5b457c008fbb7b2bULL},
      {0xb88ab210ccbfdd2aULL, 0xc5fc5166725d3967ULL},
      {0xe0caa07a02522bebULL, 0x3ec760f7d386de58ULL},
      {0x0000000000000000ULL, 0x85e129d65b89fdd7ULL},
  };
  const Dataset ds = SmallDataset();
  const ClusterSpec cluster = MultiMachineCluster(2, 2);
  const bool was_tracing = obs::TracingEnabled();
  obs::SetTracingEnabled(true);
  const std::vector<ChargeCase> cases = ChargeCases();
  ASSERT_EQ(cases.size(), pinned.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    SCOPED_TRACE(Describe(cases[i]));
    const ChargeRun run = TrainChargeCase(ds, cluster, cases[i]);
    EXPECT_EQ(run.tape, pinned[i].first);
    EXPECT_EQ(run.trace, pinned[i].second);
  }
  obs::SetTracingEnabled(was_tracing);
}

}  // namespace
}  // namespace apt
