// Trace analysis engine: turns raw apt::obs traces (in-memory events or
// exported Chrome-trace JSON files) into the quantities the paper's
// evaluation reasons about — per-stage simulated-time breakdowns, critical
// paths across device lanes, per-operation communication attribution, step
// latency percentiles — plus the comparison machinery built on top: run
// diffing with a noise threshold and the perf-regression gate consumed by CI
// (`aptperf diff` / `aptperf gate`).
//
// Analysis is offline and allocation-happy by design; the cost discipline of
// obs/trace.h applies to RECORDING, not to the tooling that reads traces.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/trace.h"

namespace apt::obs {

/// One analyzed slice with OWNED strings: the common event model for live
/// Tracer events (literal pointers) and file-loaded events (parsed strings).
struct SliceRec {
  std::int32_t pid = kHostPid;
  std::int32_t lane = 0;
  double t0_s = 0.0;   ///< start, seconds in the slice's domain
  double dur_s = 0.0;  ///< duration, seconds
  Domain domain = Domain::kReal;
  std::string name;
  std::string cat;
  std::map<std::string, double> num_args;
  std::map<std::string, std::string> str_args;

  double End() const { return t0_s + dur_s; }
};

/// Aggregate over slices sharing a "cat/name" key.
struct StageSum {
  double total_s = 0.0;     ///< summed over all lanes
  double max_lane_s = 0.0;  ///< max over lanes of that lane's sum
  std::int64_t count = 0;
};

/// One segment of a reconstructed critical path (oldest first in the vector).
struct CriticalSeg {
  std::int32_t lane = 0;  ///< -1 for idle gaps (no lane active)
  double t0_s = 0.0;
  double dur_s = 0.0;
  std::string name;  ///< "idle" for gaps
  std::string cat;
};

/// Latency distribution over the step markers of one track.
struct StepTimes {
  std::int64_t count = 0;
  double mean_s = 0.0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
  double max_s = 0.0;
};

/// Serving-engine activity on one track (spans with category "serve", which
/// live on the marker lane in WALL simulated time — arrival to completion,
/// queueing included — unlike device slices, whose timestamps are busy-clock
/// accumulations). "request" spans carry end-to-end latency, "batch" spans
/// carry occupancy in their "rows" arg, "shed" spans count typed rejections.
struct ServeStats {
  StepTimes latency;  ///< distribution over "request" span durations
  std::int64_t shed = 0;
  std::int64_t batches = 0;
  double mean_batch_rows = 0.0;
  double max_batch_rows = 0.0;

  bool Any() const { return latency.count > 0 || shed > 0 || batches > 0; }
};

/// Everything the analyzer reconstructs for ONE simulated track (one
/// SimContext: one trainer's virtual cluster).
struct TraceAnalysis {
  std::int32_t pid = -1;
  std::string track_label;  ///< SimTrackInfo label / process_name
  std::string strategy;     ///< from epoch/step markers; "" when unmarked
  std::int32_t num_device_lanes = 0;

  // Window covered by device slices (simulated seconds).
  double t_begin_s = 0.0;
  double t_end_s = 0.0;
  /// t_end - t_begin: the simulated wall time of the analyzed window. For a
  /// single traced epoch this reproduces EpochStats::wall_seconds.
  double wall_s = 0.0;

  /// Per-phase (slice cat: "sample" / "load" / "train" / ...) busy time —
  /// max over device lanes, and total across lanes. Stacking the maxima
  /// reproduces EpochStats::sim_seconds.
  std::map<std::string, double> phase_max_s;
  std::map<std::string, double> phase_total_s;
  /// Communication share of each phase (collective busy + barrier wait,
  /// plus pipeline stalls — the EXPOSED communication in pipelined runs),
  /// max over lanes — reproduces SimContext::CommMax per phase.
  std::map<std::string, double> comm_max_s;

  // --- pipelined comm-stream accounting (zero in serial runs) -------------
  /// Comm-stream lanes ("gpuN.comm") that recorded any slice.
  std::int32_t num_comm_lanes = 0;
  /// Per-phase comm-STREAM busy time (slices tagged {"stream":"comm"} by
  /// the pipelined replay): max over comm lanes / total across them.
  /// Deliberately excluded from phase_max_s/phase_total_s so
  /// StackedSeconds keeps matching EpochStats::sim_seconds.
  std::map<std::string, double> comm_stream_max_s;
  std::map<std::string, double> comm_stream_total_s;
  /// Total "pipeline.stall" time on the compute lanes: communication the
  /// overlap failed to hide.
  double stall_total_s = 0.0;

  /// Per-stage sums keyed "cat/name" (e.g. "train/alltoall", "sample/gather",
  /// "load/load", "train/wait"), device lanes only.
  std::map<std::string, StageSum> by_name;
  /// Communication time by operation (alltoall / allreduce / allbroadcast /
  /// wait / fault.collective), max over lanes.
  std::map<std::string, double> comm_by_op_s;

  /// Final cumulative per-TrafficClass wire bytes from this track's
  /// "traffic_bytes" counter samples (series name -> last value).
  std::map<std::string, std::int64_t> traffic_bytes;

  /// Critical path through the device lanes: the chain of slices (and idle
  /// gaps) that determines t_end, walked backward from the last slice end.
  /// Durations sum to wall_s by construction.
  std::vector<CriticalSeg> critical_path;
  double critical_total_s = 0.0;
  /// Critical-path time attributed by slice name ("idle" for gaps).
  std::map<std::string, double> critical_by_name_s;

  /// Distribution over "step" marker spans (empty when the engine hooks were
  /// not active, e.g. traces from raw SimContext use).
  StepTimes steps;
  /// Sampled execution: step markers flagged fast_forward (tape replay).
  /// When > 0, model-quality metrics of this track are EXTRAPOLATED from the
  /// probe steps; timing metrics stay exact-model. Report rows carry the flag.
  std::int64_t steps_fast_forwarded = 0;

  /// Serving-engine request/batch/shed statistics (zero when the track ran
  /// no serving).
  ServeStats serve;

  /// Sum of the sample/load/train phase maxima: EpochStats::sim_seconds for
  /// a one-epoch trace (the paper's stacked-bar total).
  double StackedSeconds() const;
  /// sample max + load max + train COMM max: the planner's comparable time
  /// (compute is identical across strategies, so only train's shuffle share
  /// participates in strategy choice).
  double ComparableSeconds() const;
  /// Fraction of comm-stream busy time hidden under compute:
  /// 1 - exposed/busy, clamped to [0, 1]. Zero when the run was serial
  /// (no comm-stream activity).
  double OverlapEfficiency() const;
};

/// Whole-file (or whole-Tracer) analysis result.
struct TraceSet {
  /// One entry per simulated track that recorded at least one device slice,
  /// in pid order.
  std::vector<TraceAnalysis> tracks;
  /// Real-domain (host) stage sums keyed "cat/name" — where the fork-join
  /// runtime actually spent wall time (permute/shuffle/execute/reshuffle
  /// stage spans, kernel scopes, ...).
  std::map<std::string, StageSum> host_stages;
  std::int64_t dropped_events = 0;

  /// First track whose strategy matches; nullptr when absent.
  const TraceAnalysis* ByStrategy(const std::string& strategy) const;
  /// Tracks that carry engine step/epoch markers (i.e. real training runs,
  /// not dry-run probes). Empty when no track is marked.
  std::vector<const TraceAnalysis*> MarkedTracks() const;
};

/// Analyzes in-memory events (as drained from Tracer::Global()) against the
/// tracer's registered sim tracks.
TraceSet AnalyzeEvents(const std::vector<TraceEvent>& events,
                       const std::vector<SimTrackInfo>& sim_tracks);

/// Loads and analyzes an exported trace file. Returns false with a
/// one-line `error` on IO/parse failure or when the file's schema_version
/// is missing or newer than kObsSchemaVersion.
bool AnalyzeTraceFile(const std::string& path, TraceSet* out, std::string* error);

/// Human-readable report (the `aptperf report` output): per-track stage
/// breakdown, communication attribution, critical path, step percentiles.
/// By default only marked (engine-run) tracks are printed when any exist;
/// `all_tracks` forces everything.
void WriteReport(std::ostream& os, const TraceSet& set, bool all_tracks = false);

// --- run diffing -----------------------------------------------------------

struct DiffLine {
  std::string metric;
  double a = 0.0;
  double b = 0.0;
  double rel = 0.0;  ///< (b - a) / max(|a|, eps)
  bool significant = false;
};

struct DiffReport {
  std::string a_label;
  std::string b_label;
  double threshold = 0.0;
  std::vector<DiffLine> lines;
  bool any_significant = false;

  void WriteMarkdown(std::ostream& os) const;
};

/// Stage-level diff of two analyzed tracks. A line is significant when the
/// relative change exceeds `threshold` AND the absolute change exceeds
/// `abs_floor_s` (noise floor for near-zero stages).
DiffReport DiffAnalyses(const TraceAnalysis& a, const TraceAnalysis& b,
                        double threshold = 0.05, double abs_floor_s = 1e-9);

// --- perf-regression gate --------------------------------------------------
//
// The gate compares bench records files (bench_util.cpp's BENCH_<name>.json):
// each record is matched by identity key between baseline and current, and
// every shared numeric metric is checked for regression. Simulated-seconds
// metrics are deterministic, so they gate tightly and portably; wall-clock
// metrics ("time_ns") are machine-dependent and get their own (looser)
// tolerance. Improvements always pass.

struct GateOptions {
  double sim_tolerance = 0.25;   ///< max allowed relative regression, sim metrics
  double wall_tolerance = 0.25;  ///< same for wall-clock metrics
  bool gate_wall = true;         ///< false: report wall deltas, never fail on them
};

struct GateFinding {
  std::string key;     ///< record identity ("op/shape" or "case:.../GDP")
  std::string metric;  ///< metric name within the record
  double base = 0.0;
  double current = 0.0;
  double rel = 0.0;  ///< (current - base) / base; positive = slower
  bool wall = false;
  bool regression = false;
};

struct GateReport {
  std::vector<GateFinding> findings;  ///< every compared metric
  std::vector<std::string> notes;     ///< unmatched records etc.
  std::int64_t compared = 0;
  std::int64_t regressions = 0;

  bool Pass() const { return regressions == 0; }
  void WriteMarkdown(std::ostream& os) const;
};

/// Loads a bench-records file, enforcing the schema header. Returns false
/// with `error` on IO/parse/schema failure.
bool LoadRecordsFile(const std::string& path, JsonValue* out, std::string* error);

/// Flattens a records document into identity-keyed numeric metrics
/// (exposed for tests; RunGate uses it on both sides).
std::map<std::string, std::map<std::string, double>> FlattenRecords(
    const JsonValue& records_doc);

/// Gates `current` against `baseline` (both parsed records documents).
GateReport RunGate(const JsonValue& baseline, const JsonValue& current,
                   const GateOptions& options);

/// Merges the "records" arrays of several parsed records files into one
/// document (meta taken from the first), so a baseline can cover multiple
/// bench binaries. Serialized back out with WriteRecordsDoc.
JsonValue MergeRecordsDocs(const std::vector<const JsonValue*>& docs);

/// Writes a records document (as produced by MergeRecordsDocs or parsed by
/// LoadRecordsFile) back to JSON with the current schema header.
void WriteRecordsDoc(std::ostream& os, const JsonValue& doc);

}  // namespace apt::obs
