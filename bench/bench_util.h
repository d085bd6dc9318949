// Shared harness for the figure/table reproduction benches.
//
// Every figure bench runs the four strategies on a configuration, prints the
// per-strategy epoch time with the paper's sampling/loading/training
// decomposition, and stars the strategy APT's planner selects. Epoch times
// are SIMULATED seconds on the modeled cluster (see DESIGN.md): absolute
// values are not comparable to the paper's testbed, the relative shape is.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apt/adapter.h"
#include "core/logging.h"
#include "apt/planner.h"
#include "engine/trainer.h"
#include "graph/dataset.h"
#include "partition/partitioner.h"
#include "sim/hardware.h"

namespace apt::bench {

/// One benchmark configuration (a cell group in a paper figure).
struct CaseConfig {
  std::string label;
  const Dataset* dataset = nullptr;
  ClusterSpec cluster;
  ModelConfig model;
  EngineOptions opts;
  Partitioner* partitioner = nullptr;  ///< default: multilevel
  int epochs = 1;                      ///< measured epochs (averaged)
};

/// Per-strategy outcome for one case.
struct StrategyResult {
  Strategy strategy = Strategy::kGDP;
  EpochStats epoch;       ///< averaged over measured epochs
  bool oom = false;       ///< simulated device memory exceeded
  CostEstimate estimate;  ///< planner's view
  /// Simulated traffic over the whole run (all classes, all epochs):
  /// logical fp32 bytes and what actually crossed the links after the wire /
  /// storage / gradient codecs. Equal when no codec is configured.
  std::int64_t traffic_bytes = 0;
  std::int64_t traffic_wire_bytes = 0;
};

struct CaseResult {
  std::string label;
  std::vector<StrategyResult> per_strategy;
  Strategy selected = Strategy::kGDP;  ///< APT's pick
  double dryrun_wall_seconds = 0.0;

  const StrategyResult& of(Strategy s) const {
    return per_strategy[static_cast<std::size_t>(s)];
  }
  /// Simulated epoch seconds of the fastest non-OOM strategy.
  double BestSeconds() const;
  /// Epoch seconds of APT's selection.
  double SelectedSeconds() const { return of(selected).epoch.sim_seconds; }
};

/// Runs planner + all four strategies for one case and appends the case as
/// a machine-readable record (see BenchFinish), keyed by its label.
CaseResult RunCase(const CaseConfig& config);

/// Prints the header / one row of the standard figure table. Columns per
/// strategy: total epoch seconds with (sample/load/train) breakdown; the
/// APT selection is starred.
void PrintTableHeader(const std::string& sweep_name);
void PrintCaseRow(const CaseResult& result);

// --- shared run harness: obs wiring + machine-readable output -------------
//
// Every bench main brackets its work with BenchInit/BenchFinish:
//
//   int main(int argc, char** argv) {
//     bench::BenchInit("fig01_no_winner", &argc, argv);
//     ... PrintCaseRow(RunCase(cfg)) ...
//     return bench::BenchFinish();
//   }

/// Parses and strips the shared flags from argv (unrecognized arguments are
/// left in place, so google-benchmark flags pass through):
///   --trace-out=<file>    enable apt::obs tracing; export a Chrome/Perfetto
///                         trace on finish
///   --metrics-out=<file>  dump the metrics registry as JSON on finish
///   --records-out=<file>  records file (default BENCH_<name>.json)
///   --telemetry-out=<file> windowed telemetry timeline JSONL on finish
///                          (feed to `aptperf timeline` / `aptperf slo`)
///   --prom-out=<file>     Prometheus-style text snapshot on finish
///   --sample-period=<N>   sampled execution: PaperDefaults() sets
///                         EngineOptions::scale_sample_period = N (a
///                         positive integer), records are flagged
void BenchInit(const std::string& name, int* argc = nullptr, char** argv = nullptr);

/// Parses `value` of `flag` as a positive integer; anything else prints a
/// message and exits with status 2.
std::int64_t PositiveIntFlag(const char* flag, const char* value);

/// Appends one pre-serialized JSON object to the run's records.
void AddRecord(std::string json_object);

/// Writes the records file — {"meta": {git sha, build flags, threads, ...},
/// "records": [...]} — plus the trace / metrics files when requested.
/// Returns 0 (the bench's exit code) or 1 on an IO error.
int BenchFinish();

/// The three paper-graph stand-ins at bench scale (cached per process).
const Dataset& PsLike();
const Dataset& FsLike();
const Dataset& ImLike();

/// Default engine options used by the paper's main experiments
/// (fanout [10,10,10], per-GPU batch, 4 GB cache scaled to our graphs).
EngineOptions PaperDefaults();

/// Default GraphSAGE config (3 layers, hidden 32) for dataset `ds`.
ModelConfig SageConfig(const Dataset& ds, std::int64_t hidden = 32);
/// Default GAT config (3 layers, hidden 8, 4 heads).
ModelConfig GatConfig(const Dataset& ds, std::int64_t hidden = 8);

/// Scaled stand-in for the paper's 4 GB GPU cache: enough for ~1/6 of the
/// bench dataset's features, mirroring 4 GB vs the paper's 53-128 GB.
std::int64_t DefaultCacheBytes(const Dataset& ds);

}  // namespace apt::bench
