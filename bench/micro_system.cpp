// google-benchmark microbenchmarks for the system layers: the multilevel
// partitioner, the simulated collectives, and the dry-run planner itself
// (the paper's "strategy selection must be fast" requirement). Each run
// also lands as a JSON record in BENCH_micro_system.json (see bench_gbench.h).
#include <benchmark/benchmark.h>

#include "apt/adapter.h"
#include "apt/planner.h"
#include "bench_gbench.h"
#include "core/logging.h"
#include "comm/collectives.h"
#include "engine/trainer.h"
#include "graph/generators.h"
#include "obs/histogram.h"
#include "obs/telemetry.h"
#include "partition/partitioner.h"
#include "tensor/ops.h"

namespace apt {
namespace {

const CsrGraph& BenchGraph() {
  static const CsrGraph g = [] {
    ZipfCommunityParams p;
    p.num_nodes = 20000;
    p.num_edges = 200000;
    p.num_communities = 8;
    return ZipfCommunityGraph(p);
  }();
  return g;
}

void BM_MultilevelPartition(benchmark::State& state) {
  const CsrGraph& g = BenchGraph();
  for (auto _ : state) {
    MultilevelPartitioner ml;
    benchmark::DoNotOptimize(ml.Partition(g, static_cast<PartId>(state.range(0))));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_MultilevelPartition)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// Simulated seconds per call of `charge` over a fixed number of calls on a
// fresh `c`-GPU SimContext, so the record does not depend on how many
// iterations the wall-clock loop happened to run.
template <typename Charge>
double SimSecondsPerOp(std::int32_t c, const Charge& charge) {
  constexpr int kCalls = 64;
  SimContext sim(SingleMachineCluster(c));
  Communicator comm(sim);
  const double sim0 = sim.MaxNow();
  for (int i = 0; i < kCalls; ++i) charge(comm);
  return (sim.MaxNow() - sim0) / kCalls;
}

void BM_ChargeAllToAll(benchmark::State& state) {
  const std::int32_t c = 8;
  SimContext sim(SingleMachineCluster(c));
  Communicator comm(sim);
  const std::int64_t rows = state.range(0), cols = 32;
  AllToAllTraffic traffic;
  for (DeviceId i = 0; i < c; ++i) {
    for (DeviceId j = 0; j < c; ++j) {
      traffic.Add(j, rows * cols * 4, comm.WireBytes(rows, cols));
    }
    traffic.EndSender();
  }
  for (auto _ : state) comm.ChargeAllToAll(traffic, Phase::kTrain);
  state.SetBytesProcessed(state.iterations() * c * (c - 1) * rows * cols * 4);
  // Simulated cost per collective: pure cost-model arithmetic, so this
  // counter is bit-identical across machines — the perf gate's tight metric
  // (wall time_ns gets the loose machine-dependent tolerance).
  state.counters["sim_seconds_per_op"] = SimSecondsPerOp(c, [&](Communicator& fresh) {
    fresh.ChargeAllToAll(traffic, Phase::kTrain);
  });
}
BENCHMARK(BM_ChargeAllToAll)->Arg(256)->Arg(2048);

void BM_AllReduce(benchmark::State& state) {
  const std::int32_t c = 8;
  SimContext sim(SingleMachineCluster(c));
  Communicator comm(sim);
  std::vector<Tensor> bufs(static_cast<std::size_t>(c),
                           Tensor(state.range(0), 32));
  for (auto _ : state) {
    // The caller's device-order sum, then the ring charge.
    Tensor sum = bufs[0];
    for (std::size_t d = 1; d < bufs.size(); ++d) Axpy(1.0f, bufs[d], sum);
    comm.ChargeAllReduce(sum.bytes(), comm.RingWireBytes(sum), Phase::kTrain);
    benchmark::DoNotOptimize(sum.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 32 * 4);
  const std::int64_t bytes = bufs[0].bytes();
  const std::int64_t wire = comm.RingWireBytes(bufs[0]);
  state.counters["sim_seconds_per_op"] = SimSecondsPerOp(c, [&](Communicator& fresh) {
    fresh.ChargeAllReduce(bytes, wire, Phase::kTrain);
  });
}
BENCHMARK(BM_AllReduce)->Arg(1024)->Arg(8192);

void BM_DryRunPlanner(benchmark::State& state) {
  static const Dataset ds = MakeDataset(PsLikeParams(0.1));
  const ClusterSpec cluster = SingleMachineCluster(8);
  ModelConfig model;
  model.kind = ModelKind::kSage;
  model.num_layers = 3;
  model.hidden_dim = 32;
  model.input_dim = ds.feature_dim();
  model.num_classes = ds.num_classes;
  EngineOptions opts;
  opts.fanouts = {10, 10, 10};
  opts.batch_size_per_device = 128;
  opts.cache_bytes_per_device = ds.FeatureBytes() / 12;
  MultilevelPartitioner ml;
  const std::vector<PartId> partition = ml.Partition(ds.graph, 8);
  SetLogLevel(LogLevel::kWarn);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakePlan(ds, cluster, partition, opts, model));
  }
  // The planner's chosen comparable time is deterministic (dry-run volumes
  // over modeled bandwidths): a cost-model drift shows up here even when the
  // planner itself got neither faster nor slower.
  const PlanReport plan = MakePlan(ds, cluster, partition, opts, model);
  state.counters["sim_selected_comparable_s"] =
      plan.estimates[static_cast<std::size_t>(plan.selected)].Comparable();
}
BENCHMARK(BM_DryRunPlanner)->Unit(benchmark::kMillisecond);

// --- telemetry overhead ----------------------------------------------------

void BM_HistogramRecord(benchmark::State& state) {
  obs::Histogram h;
  double v = 1e-6;
  for (auto _ : state) {
    h.Record(v);
    v = v < 1.0 ? v * 1.001 : 1e-6;  // sweep buckets, stay in range
  }
  benchmark::DoNotOptimize(h.Count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_TelemetryRecord(benchmark::State& state) {
  obs::TimeSeries& ts = obs::Telemetry::Global().series("bench.record", 1e-3);
  double t = 0.0;
  for (auto _ : state) {
    ts.Record(t, 1.5e-4);
    t += 1e-6;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TelemetryRecord);

/// One GDP training epoch with trainer telemetry off (/0) and on (/1). The
/// on-case also runs a telemetry-off epoch and records the simulated-seconds
/// difference: telemetry must never advance the virtual clocks, so the
/// baseline pins sim_telemetry_overhead_s at EXACTLY zero and the perf gate
/// fails on any nonzero value (rel against a 0 baseline is unbounded). The
/// wall-clock overhead is the ratio of the two time_ns rows (<1%,
/// EXPERIMENTS.md).
void BM_GdpEpochTelemetry(benchmark::State& state) {
  static const Dataset ds = MakeDataset(PsLikeParams(0.05));
  const ClusterSpec cluster = SingleMachineCluster(4);
  ModelConfig model;
  model.kind = ModelKind::kSage;
  model.num_layers = 2;
  model.hidden_dim = 16;
  model.input_dim = ds.feature_dim();
  model.num_classes = ds.num_classes;
  EngineOptions opts;
  opts.fanouts = {5, 5};
  opts.batch_size_per_device = 64;
  opts.cache_bytes_per_device = ds.FeatureBytes() / 12;
  MultilevelPartitioner ml;
  const std::vector<PartId> partition = ml.Partition(ds.graph, 4);
  SetLogLevel(LogLevel::kWarn);
  const PlanReport plan = MakePlan(ds, cluster, partition, opts, model);
  const auto run_epoch = [&](double window_s) {
    EngineOptions o = opts;
    o.telemetry_window_s = window_s;
    TrainerSetup setup = BuildTrainerSetup(cluster, model, o, partition,
                                           plan.dryrun, Strategy::kGDP);
    ParallelTrainer trainer(ds, std::move(setup));
    return trainer.TrainEpoch(0).sim_seconds;
  };
  const bool telemetry_on = state.range(0) != 0;
  double sim_s = 0.0;
  for (auto _ : state) {
    sim_s = run_epoch(telemetry_on ? 1e-3 : 0.0);
    benchmark::DoNotOptimize(sim_s);
  }
  if (telemetry_on) {
    state.counters["sim_telemetry_overhead_s"] = sim_s - run_epoch(0.0);
  }
}
BENCHMARK(BM_GdpEpochTelemetry)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace apt

int main(int argc, char** argv) {
  return apt::bench::RunGoogleBench("micro_system", argc, argv);
}
