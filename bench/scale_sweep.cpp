// Scale sweep: the deviation-D1 experiment at paper scale.
//
// EXPERIMENTS.md D1 records that the bench-scale FS stand-in mutes the
// paper's hidden-dim crossover: at ~30k nodes the per-device frontiers are
// small enough that (a) feature loading is a minor epoch fraction and
// (c) SNP's fixed per-collective latencies never amortize, so GDP wins
// every cell. Sampled execution removes the reason to shrink the experiment:
// together with analytic fast-forward collectives, it trains a 100M-node-
// class RMAT graph on simulated clusters up to 100 machines / 1000 devices
// in minutes on one workstation.
//
// The full run builds ONE RMAT scale-27 graph (~134M nodes, 2^28 edges,
// procedural dim-256 features — FS's feature dim, nothing O(N x dim) is
// materialized) and sweeps two cluster blocks:
//
//   * paper32 — 4 machines x 8 GPUs, batch 2048, fanout [10,10]: the
//     paper-testbed-shaped block. Per-device frontiers reach ~5e4 unique
//     nodes, loading dominates GDP's epoch exactly as at Friendster scale,
//     and the FS hidden-dim crossover appears: SNP wins at hidden 32, GDP
//     at hidden 512 (deviation D1 disappears).
//   * xl1000 — 100 machines x 10 GPUs, batch 16: the scale-demonstration
//     block. At 1000 flat ranks every SNP all-to-all pays ~1000 per-lane
//     injection latencies per step, which no loading advantage can buy
//     back, so GDP stays optimal at every hidden dim — a real property of
//     flat collectives at that fan-out, reported as such.
//
// Both use a modulo node partition (no multilevel partition is available at
// 134M nodes — fig11's random-partition regime, which is also FS's
// poor-partitionability story) and an empty feature cache.
//
// Emits BENCH_scale.json rows (gated by `aptperf gate`): every sim_* metric
// is a deterministic simulated quantity, bit-stable across thread counts;
// rows carry steps_executed / steps_fast_forwarded and extrapolated=true.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/logging.h"
#include "engine/trainer.h"
#include "feature/feature_store.h"
#include "graph/generators.h"
#include "obs/json.h"
#include "sim/hardware.h"

namespace {

using namespace apt;

/// One simulated-cluster block swept over hidden dims on the shared graph.
struct ClusterBlock {
  std::string name;
  int machines = 4;
  int gpus_per_machine = 8;
  std::int64_t batch_per_device = 2048;
  std::vector<int> fanouts = {10, 10};
  std::int64_t sample_period = 8;
  std::int64_t max_steps = 8;
  std::vector<std::int64_t> hidden_dims = {32, 512};
};

struct SweepConfig {
  int rmat_scale = 27;  // ~134M nodes: the 100M-node class
  EdgeId rmat_edges = 1LL << 28;
  std::int64_t feature_dim = 256;  // FS feature dim
  std::int64_t num_classes = 16;
  std::int64_t train_nodes = 1LL << 19;
  std::vector<ClusterBlock> blocks;
};

SweepConfig FullConfig() {
  SweepConfig c;
  ClusterBlock paper;
  paper.name = "paper32";
  c.blocks.push_back(paper);
  ClusterBlock xl;
  xl.name = "xl1000";
  xl.machines = 100;
  xl.gpus_per_machine = 10;
  xl.batch_per_device = 16;
  xl.sample_period = 16;
  xl.max_steps = 16;
  c.blocks.push_back(xl);
  return c;
}

SweepConfig SmokeConfig() {
  SweepConfig c;
  c.rmat_scale = 16;  // 65536 nodes
  c.rmat_edges = 1LL << 18;
  c.feature_dim = 64;
  c.train_nodes = 4096;
  ClusterBlock b;
  b.name = "smoke32";
  b.machines = 8;
  b.gpus_per_machine = 4;
  b.batch_per_device = 4;
  b.fanouts = {4, 4};
  b.sample_period = 4;
  b.max_steps = 8;
  b.hidden_dims = {32, 256};
  c.blocks.push_back(b);
  return c;
}

/// A positive integer flag no larger than `max`; anything else exits with
/// status 2, like bench::PositiveIntFlag.
int BoundedFlag(const char* flag, const char* value,
                int max = std::numeric_limits<int>::max()) {
  const std::int64_t v = bench::PositiveIntFlag(flag, value);
  if (v > max) {
    std::fprintf(stderr, "%s=%s: expected at most %d\n", flag, value, max);
    std::exit(2);
  }
  return static_cast<int>(v);
}

/// A comma-separated list of positive integers, each at most `max`; an
/// empty list or any other element exits with status 2.
std::vector<int> BoundedListFlag(const char* flag, const char* value,
                                 int max = std::numeric_limits<int>::max()) {
  std::vector<int> out;
  const std::string list(value);
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = list.find(',', start);
    out.push_back(BoundedFlag(flag, list.substr(start, comma - start).c_str(), max));
    if (comma == std::string::npos) return out;
    start = comma + 1;
  }
}

/// Exploration overrides (`--dim=...`). Graph flags apply to the shared
/// graph; block flags replace the default blocks with one custom block.
/// The checked-in defaults are the full and --smoke configurations above.
bool ApplyFlag(SweepConfig* cfg, ClusterBlock* custom, const char* arg) {
  const auto eat = [&](const char* prefix, const char** rest) {
    const std::size_t n = std::strlen(prefix);
    if (std::strncmp(arg, prefix, n) != 0) return false;
    *rest = arg + n;
    return true;
  };
  const char* v = nullptr;
  // Graph flags (shared dataset) — do not imply a custom block.
  if (eat("--rmat-scale=", &v)) cfg->rmat_scale = BoundedFlag("--rmat-scale", v, 30);
  else if (eat("--edges-log2=", &v))
    cfg->rmat_edges = EdgeId{1} << BoundedFlag("--edges-log2", v, 62);
  else if (eat("--dim=", &v)) cfg->feature_dim = bench::PositiveIntFlag("--dim", v);
  else if (eat("--train-nodes=", &v))
    cfg->train_nodes = bench::PositiveIntFlag("--train-nodes", v);
  // Block flags — any of these replaces the default blocks with `custom`.
  else if (eat("--machines=", &v)) custom->machines = BoundedFlag("--machines", v);
  // The feature caches' per-machine GPU masks hold 64 bits.
  else if (eat("--gpus=", &v)) custom->gpus_per_machine = BoundedFlag("--gpus", v, 64);
  else if (eat("--batch=", &v))
    custom->batch_per_device = bench::PositiveIntFlag("--batch", v);
  else if (eat("--period=", &v))
    custom->sample_period = bench::PositiveIntFlag("--period", v);
  else if (eat("--steps=", &v)) custom->max_steps = bench::PositiveIntFlag("--steps", v);
  else if (eat("--hiddens=", &v)) {
    const std::vector<int> dims = BoundedListFlag("--hiddens", v);
    custom->hidden_dims.assign(dims.begin(), dims.end());
  } else if (eat("--fanout=", &v)) {
    custom->fanouts = BoundedListFlag("--fanout", v);
  } else {
    return false;
  }
  return eat("--machines=", &v) || eat("--gpus=", &v) || eat("--batch=", &v) ||
         eat("--period=", &v) || eat("--steps=", &v) || eat("--hiddens=", &v) ||
         eat("--fanout=", &v);
}

/// RMAT topology + procedural features + hashed labels + strided train set.
Dataset MakeRmatDataset(const SweepConfig& cfg) {
  Dataset ds;
  ds.name = "rmat" + std::to_string(cfg.rmat_scale);
  ds.graph = Rmat(cfg.rmat_scale, cfg.rmat_edges, 0.57, 0.19, 0.19, Rng(12));
  ds.num_classes = cfg.num_classes;
  ds.procedural_feature_dim = cfg.feature_dim;
  ds.procedural_feature_seed = 0xA77EA57ULL;
  const NodeId n = ds.graph.num_nodes();
  ds.labels.resize(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    ds.labels[static_cast<std::size_t>(v)] = static_cast<std::int64_t>(
        Rng(0xB0A7 ^ static_cast<std::uint64_t>(v)).NextBelow(
            static_cast<std::uint64_t>(cfg.num_classes)));
  }
  const NodeId stride = std::max<NodeId>(1, n / cfg.train_nodes);
  ds.train_nodes.reserve(static_cast<std::size_t>(cfg.train_nodes));
  for (NodeId v = 0; v < n && static_cast<std::int64_t>(ds.train_nodes.size()) <
                                  cfg.train_nodes;
       v += stride) {
    ds.train_nodes.push_back(v);
  }
  return ds;
}

struct CellResult {
  Strategy strategy = Strategy::kGDP;
  EpochStats epoch;
  std::int64_t traffic_bytes = 0;
  std::int64_t traffic_wire_bytes = 0;
  double build_wall_s = 0.0;
  double train_wall_s = 0.0;
};

CellResult RunCell(const Dataset& ds, const ClusterSpec& cluster,
                   const ClusterBlock& block, Strategy strategy,
                   std::int64_t hidden) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::int32_t num_devices = cluster.num_devices();

  EngineOptions opts;
  opts.strategy = strategy;
  opts.fanouts = block.fanouts;
  opts.batch_size_per_device = block.batch_per_device;
  opts.cache_bytes_per_device = 0;  // cold cache: the crossover is loads-vs-shuffles
  opts.seed_assignment = EngineOptions::DefaultAssignment(strategy);
  opts.scale_sample_period = block.sample_period;
  opts.max_steps_per_epoch = block.max_steps;

  ModelConfig model;
  model.kind = ModelKind::kSage;
  model.num_layers = static_cast<int>(opts.fanouts.size());
  model.hidden_dim = hidden;
  model.input_dim = ds.feature_dim();
  model.num_classes = ds.num_classes;

  // Modulo partition: the no-quality-partition regime (see header comment).
  // The planner/dry-run pipeline is deliberately skipped — at 134M nodes the
  // multilevel partitioner is part of what this sweep routes around.
  TrainerSetup setup;
  setup.cluster = cluster;
  setup.model = model;
  setup.engine = opts;
  const NodeId n = ds.graph.num_nodes();
  setup.partition.resize(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    setup.partition[static_cast<std::size_t>(v)] =
        static_cast<PartId>(v % num_devices);
  }
  setup.cache.cache_nodes.resize(static_cast<std::size_t>(num_devices));
  setup.cache.bytes_per_cached_row = ds.feature_dim() * 4;
  setup.feature_placement = FeaturePlacementFromPartition(setup.partition, cluster);

  ParallelTrainer trainer(ds, std::move(setup));
  const auto t1 = std::chrono::steady_clock::now();

  CellResult r;
  r.strategy = strategy;
  r.epoch = trainer.TrainEpoch(0);
  const auto t2 = std::chrono::steady_clock::now();
  for (int c = 0; c < static_cast<int>(TrafficClass::kNumClasses); ++c) {
    r.traffic_bytes += trainer.sim().TrafficBytes(static_cast<TrafficClass>(c));
    r.traffic_wire_bytes +=
        trainer.sim().TrafficWireBytes(static_cast<TrafficClass>(c));
  }
  r.build_wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.train_wall_s = std::chrono::duration<double>(t2 - t1).count();
  return r;
}

void RecordCase(const std::string& label, const std::vector<CellResult>& cells) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.BeginObject();
  w.KV("case", label);
  w.Key("strategies");
  w.BeginObject();
  for (const CellResult& r : cells) {
    w.Key(ToString(r.strategy));
    w.BeginObject();
    w.KV("sim_seconds", r.epoch.sim_seconds);
    w.KV("sim_wall_clock_seconds", r.epoch.wall_seconds);
    w.KV("sim_sample_seconds", r.epoch.sample_seconds);
    w.KV("sim_load_seconds", r.epoch.load_seconds);
    w.KV("sim_train_seconds", r.epoch.train_seconds);
    w.KV("sim_traffic_bytes", r.traffic_bytes);
    w.KV("sim_compressed_bytes", r.traffic_wire_bytes);
    w.KV("steps_executed", r.epoch.steps_executed);
    w.KV("steps_fast_forwarded", r.epoch.steps_fast_forwarded);
    w.KV("extrapolated", r.epoch.steps_fast_forwarded > 0);
    w.KV("harness_wall_seconds", r.build_wall_s + r.train_wall_s);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  bench::AddRecord(os.str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace apt;
  SetLogLevel(LogLevel::kWarn);
  // Named "scale" so the records land in BENCH_scale.json (the gate file).
  bench::BenchInit("scale", &argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  SweepConfig cfg = smoke ? SmokeConfig() : FullConfig();
  ClusterBlock custom;
  custom.name = "custom";
  bool have_custom = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0 || std::strcmp(argv[i], "--smoke") == 0)
      continue;
    have_custom |= ApplyFlag(&cfg, &custom, argv[i]);
  }
  if (have_custom) cfg.blocks = {custom};

  const auto g0 = std::chrono::steady_clock::now();
  const Dataset ds = MakeRmatDataset(cfg);
  const double graph_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - g0).count();
  std::printf(
      "=== Scale sweep (deviation D1): %s, %lld nodes / %lld edges, dim %lld "
      "[graph build %.2fs] ===\n",
      ds.name.c_str(), static_cast<long long>(ds.graph.num_nodes()),
      static_cast<long long>(ds.graph.num_edges()),
      static_cast<long long>(cfg.feature_dim), graph_wall);
  std::printf("%-26s %-5s %12s %12s %12s %12s %10s %14s\n", "case", "strat",
              "epoch_s", "sample_s", "load_s", "train_s", "steps", "harness_s");

  bool paper_low_snp = false, paper_high_gdp = false;
  for (const ClusterBlock& block : cfg.blocks) {
    const ClusterSpec cluster =
        MultiMachineCluster(block.machines, block.gpus_per_machine);
    std::printf("--- %s: %d machines x %d GPUs, batch %lld/device ---\n",
                block.name.c_str(), block.machines, block.gpus_per_machine,
                static_cast<long long>(block.batch_per_device));
    for (std::size_t hi = 0; hi < block.hidden_dims.size(); ++hi) {
      const std::int64_t hidden = block.hidden_dims[hi];
      const std::string label = ds.name + "_" + block.name + "_d" +
                                std::to_string(cfg.feature_dim) + "_h" +
                                std::to_string(hidden);
      std::vector<CellResult> cells;
      for (Strategy s : {Strategy::kGDP, Strategy::kSNP}) {
        cells.push_back(RunCell(ds, cluster, block, s, hidden));
        const CellResult& r = cells.back();
        std::printf(
            "%-26s %-5s %12.3f %12.3f %12.3f %12.3f %5lld+%-4lld %13.1fs\n",
            label.c_str(), ToString(s), r.epoch.sim_seconds,
            r.epoch.sample_seconds, r.epoch.load_seconds, r.epoch.train_seconds,
            static_cast<long long>(r.epoch.steps_executed),
            static_cast<long long>(r.epoch.steps_fast_forwarded),
            r.build_wall_s + r.train_wall_s);
      }
      RecordCase(label, cells);
      const bool snp_wins =
          cells[1].epoch.sim_seconds < cells[0].epoch.sim_seconds;
      std::printf("  -> hidden %-5lld winner: %s\n",
                  static_cast<long long>(hidden), snp_wins ? "SNP" : "GDP");
      // The crossover claim is evaluated on the paper-testbed-shaped block
      // (and on the single block of a --smoke / custom run).
      if (block.name != "xl1000") {
        if (hi == 0 && snp_wins) paper_low_snp = true;
        if (hi + 1 == block.hidden_dims.size() && !snp_wins)
          paper_high_gdp = true;
      }
    }
  }
  std::printf("crossover (SNP at low hidden -> GDP at high hidden): %s\n",
              paper_low_snp && paper_high_gdp ? "RECOVERED" : "NOT SEEN");
  return bench::BenchFinish();
}
