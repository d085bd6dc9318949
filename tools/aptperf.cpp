// aptperf: command-line front end for the apt::obs trace analysis engine.
//
//   aptperf report <trace.json> [--all] [--csv]
//       Per-strategy stage breakdown, communication attribution, critical
//       path, and step percentiles of an exported trace.
//
//   aptperf diff <trace_a.json> <trace_b.json> [--strategy NAME]
//              [--threshold 0.05]
//       Markdown stage-level deltas between two traces (first marked track
//       of each by default). Exit 0 always — diffing is informational.
//
//   aptperf gate --baseline BENCH_a.json --current BENCH_b.json
//              [--tolerance 0.25] [--wall-tolerance 0.25] [--no-wall]
//       Perf-regression gate over bench records files. Exit 0 when every
//       shared metric is within tolerance, 1 on any regression, 2 on usage
//       or IO errors. This is what CI runs against the committed baseline.
//
//   aptperf merge --out OUT.json IN1.json IN2.json ...
//       Concatenates the records of several bench files into one document
//       (how BENCH_baseline.json is produced from the micro benches).
//
//   aptperf flight <flight.json>
//       Pretty-prints a fault flight recording (most recent events last).
//
//   aptperf timeline <timeline.jsonl> [--series NAME]
//       Renders a windowed telemetry timeline export (obs/telemetry.h
//       WriteTimelineJsonl): per series, one row per closed window with
//       count / mean / p50 / p95 / p99 / min / max.
//
//   aptperf slo <timeline.jsonl> --rule "SERIES STAT CMP BOUND[unit]" ...
//       Evaluates declarative SLO rules (obs/slo.h textual form) offline
//       against an exported timeline. Exit 0 when every rule holds over
//       every qualifying window, 1 on any violation, 2 on usage/IO errors.
//       This is the CI hook that holds serve_openloop to its latency SLO.
//
// All readers enforce the apt::obs schema header: files without a
// schema_version, or with one newer than this build understands, are
// rejected with a clear error instead of silently mis-parsed.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/analysis.h"
#include "obs/json.h"
#include "obs/slo.h"

namespace {

using apt::obs::GateOptions;
using apt::obs::GateReport;
using apt::obs::JsonValue;
using apt::obs::TraceAnalysis;
using apt::obs::TraceSet;

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  aptperf report <trace.json> [--all] [--csv]\n"
               "  aptperf diff <trace_a.json> <trace_b.json> [--strategy NAME] "
               "[--threshold REL]\n"
               "  aptperf gate --baseline FILE --current FILE [--current FILE ...]\n"
               "               [--tolerance REL] [--wall-tolerance REL] [--no-wall]\n"
               "  aptperf merge --out FILE <records.json> [<records.json> ...]\n"
               "  aptperf flight <flight.json>\n"
               "  aptperf timeline <timeline.jsonl> [--series NAME]\n"
               "  aptperf slo <timeline.jsonl> --rule \"SERIES STAT CMP "
               "BOUND[unit]\" [--rule ...]\n");
  return 2;
}

bool TakeValueFlag(const std::vector<std::string>& args, std::size_t* i,
                   const char* flag, std::string* out) {
  // Accept both `--flag VALUE` and `--flag=VALUE` (the bench binaries use
  // the latter, so either muscle memory works here).
  const std::string& arg = args[*i];
  const std::size_t flag_len = std::string(flag).size();
  if (arg.size() > flag_len && arg.compare(0, flag_len, flag) == 0 &&
      arg[flag_len] == '=') {
    *out = arg.substr(flag_len + 1);
    return true;
  }
  if (arg != flag) return false;
  if (*i + 1 >= args.size()) {
    std::fprintf(stderr, "aptperf: %s needs a value\n", flag);
    std::exit(2);
  }
  *out = args[++*i];
  return true;
}

/// Picks the track to diff: --strategy match, else the first marked track,
/// else the first track.
const TraceAnalysis* PickTrack(const TraceSet& set, const std::string& strategy,
                               const char* which) {
  if (!strategy.empty()) {
    const TraceAnalysis* a = set.ByStrategy(strategy);
    if (a == nullptr) {
      std::fprintf(stderr, "aptperf: %s trace has no track with strategy %s\n",
                   which, strategy.c_str());
    }
    return a;
  }
  const auto marked = set.MarkedTracks();
  if (!marked.empty()) return marked.front();
  if (!set.tracks.empty()) return &set.tracks.front();
  std::fprintf(stderr, "aptperf: %s trace has no simulated tracks\n", which);
  return nullptr;
}

/// Machine-readable flavor of `report` (one row per track metric), for
/// spreadsheet / plotting pipelines.
void WriteCsv(std::ostream& os, const TraceSet& set, bool all_tracks) {
  os << "pid,strategy,label,metric,seconds\n";
  const auto marked = set.MarkedTracks();
  const bool filter = !all_tracks && !marked.empty();
  for (const TraceAnalysis& a : set.tracks) {
    if (filter && a.strategy.empty() && a.steps.count == 0 && !a.serve.Any()) {
      continue;
    }
    const auto row = [&](const std::string& metric, double v) {
      os << a.pid << "," << a.strategy << "," << a.track_label << "," << metric
         << "," << v << "\n";
    };
    row("wall_s", a.wall_s);
    row("stacked_s", a.StackedSeconds());
    row("comparable_s", a.ComparableSeconds());
    for (const auto& [cat, v] : a.phase_max_s) row("phase/" + cat, v);
    for (const auto& [cat, v] : a.comm_max_s) row("comm/" + cat, v);
    for (const auto& [key, sum] : a.by_name) row("stage/" + key, sum.max_lane_s);
    for (const auto& [name, v] : a.critical_by_name_s) row("critical/" + name, v);
    // Byte counters, not seconds: logical traffic per class plus the
    // "<class>.wire" keys holding post-codec compressed bytes.
    for (const auto& [cls, bytes] : a.traffic_bytes) {
      row("traffic/" + cls, static_cast<double>(bytes));
    }
    if (a.steps.count > 0) {
      row("steps/p50_s", a.steps.p50_s);
      row("steps/p95_s", a.steps.p95_s);
      row("steps/p99_s", a.steps.p99_s);
      // Count, not seconds: > 0 marks the track's model-quality metrics as
      // extrapolated from probe steps (sampled execution).
      row("steps/fast_forwarded", static_cast<double>(a.steps_fast_forwarded));
    }
    if (a.serve.Any()) {
      row("serve/latency_p50_s", a.serve.latency.p50_s);
      row("serve/latency_p95_s", a.serve.latency.p95_s);
      row("serve/latency_p99_s", a.serve.latency.p99_s);
      // Counts and occupancy, not seconds (same caveat as traffic bytes).
      row("serve/requests", static_cast<double>(a.serve.latency.count));
      row("serve/shed", static_cast<double>(a.serve.shed));
      row("serve/batches", static_cast<double>(a.serve.batches));
      row("serve/mean_batch_rows", a.serve.mean_batch_rows);
    }
  }
}

int CmdReport(const std::vector<std::string>& args) {
  std::string path;
  bool all = false, csv = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--all") {
      all = true;
    } else if (args[i] == "--csv") {
      csv = true;
    } else if (path.empty()) {
      path = args[i];
    } else {
      return Usage();
    }
  }
  if (path.empty()) return Usage();
  TraceSet set;
  std::string error;
  if (!apt::obs::AnalyzeTraceFile(path, &set, &error)) {
    std::fprintf(stderr, "aptperf: %s\n", error.c_str());
    return 2;
  }
  if (csv) {
    WriteCsv(std::cout, set, all);
  } else {
    apt::obs::WriteReport(std::cout, set, all);
  }
  return 0;
}

int CmdDiff(const std::vector<std::string>& args) {
  std::vector<std::string> paths;
  std::string strategy;
  double threshold = 0.05;
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string value;
    if (TakeValueFlag(args, &i, "--strategy", &strategy)) continue;
    if (TakeValueFlag(args, &i, "--threshold", &value)) {
      threshold = std::stod(value);
      continue;
    }
    paths.push_back(args[i]);
  }
  if (paths.size() != 2) return Usage();
  TraceSet sets[2];
  for (int s = 0; s < 2; ++s) {
    std::string error;
    if (!apt::obs::AnalyzeTraceFile(paths[static_cast<std::size_t>(s)], &sets[s],
                                    &error)) {
      std::fprintf(stderr, "aptperf: %s\n", error.c_str());
      return 2;
    }
  }
  const TraceAnalysis* a = PickTrack(sets[0], strategy, "first");
  const TraceAnalysis* b = PickTrack(sets[1], strategy, "second");
  if (a == nullptr || b == nullptr) return 2;
  apt::obs::DiffAnalyses(*a, *b, threshold).WriteMarkdown(std::cout);
  return 0;
}

int CmdGate(const std::vector<std::string>& args) {
  std::string baseline_path;
  std::vector<std::string> current_paths;
  GateOptions options;
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string value;
    if (TakeValueFlag(args, &i, "--baseline", &baseline_path)) continue;
    if (TakeValueFlag(args, &i, "--current", &value)) {
      current_paths.push_back(value);
      continue;
    }
    if (TakeValueFlag(args, &i, "--tolerance", &value)) {
      options.sim_tolerance = std::stod(value);
      continue;
    }
    if (TakeValueFlag(args, &i, "--wall-tolerance", &value)) {
      options.wall_tolerance = std::stod(value);
      continue;
    }
    if (args[i] == "--no-wall") {
      options.gate_wall = false;
      continue;
    }
    return Usage();
  }
  if (baseline_path.empty() || current_paths.empty()) return Usage();

  std::string error;
  JsonValue baseline;
  if (!apt::obs::LoadRecordsFile(baseline_path, &baseline, &error)) {
    std::fprintf(stderr, "aptperf: %s\n", error.c_str());
    return 2;
  }
  std::vector<JsonValue> current_docs(current_paths.size());
  std::vector<const JsonValue*> current_ptrs;
  for (std::size_t i = 0; i < current_paths.size(); ++i) {
    if (!apt::obs::LoadRecordsFile(current_paths[i], &current_docs[i], &error)) {
      std::fprintf(stderr, "aptperf: %s\n", error.c_str());
      return 2;
    }
    current_ptrs.push_back(&current_docs[i]);
  }
  const JsonValue current = apt::obs::MergeRecordsDocs(current_ptrs);
  const GateReport report = apt::obs::RunGate(baseline, current, options);
  report.WriteMarkdown(std::cout);
  return report.Pass() ? 0 : 1;
}

int CmdMerge(const std::vector<std::string>& args) {
  std::string out_path;
  std::vector<std::string> in_paths;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (TakeValueFlag(args, &i, "--out", &out_path)) continue;
    in_paths.push_back(args[i]);
  }
  if (out_path.empty() || in_paths.empty()) return Usage();
  std::string error;
  std::vector<JsonValue> docs(in_paths.size());
  std::vector<const JsonValue*> ptrs;
  for (std::size_t i = 0; i < in_paths.size(); ++i) {
    if (!apt::obs::LoadRecordsFile(in_paths[i], &docs[i], &error)) {
      std::fprintf(stderr, "aptperf: %s\n", error.c_str());
      return 2;
    }
    ptrs.push_back(&docs[i]);
  }
  const JsonValue merged = apt::obs::MergeRecordsDocs(ptrs);
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "aptperf: cannot write %s\n", out_path.c_str());
    return 2;
  }
  apt::obs::WriteRecordsDoc(out, merged);
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

int CmdFlight(const std::vector<std::string>& args) {
  if (args.size() != 1) return Usage();
  JsonValue doc;
  std::string error;
  if (!apt::obs::ParseJsonFile(args[0], &doc, &error)) {
    std::fprintf(stderr, "aptperf: %s\n", error.c_str());
    return 2;
  }
  const JsonValue* version = doc.Find("schema_version");
  if (version == nullptr || version->kind != JsonValue::kNumber ||
      static_cast<std::int64_t>(version->num) > apt::obs::kObsSchemaVersion) {
    std::fprintf(stderr, "aptperf: %s: unsupported or missing schema_version\n",
                 args[0].c_str());
    return 2;
  }
  if (const std::string* reason = doc.StrOrNull("reason")) {
    std::printf("reason: %s\n", reason->c_str());
  }
  std::printf("recorded %lld total, %lld overwritten before dump\n",
              static_cast<long long>(doc.NumOr("total_recorded", 0.0)),
              static_cast<long long>(doc.NumOr("dropped", 0.0)));
  const JsonValue* events = doc.Find("events");
  if (events == nullptr || events->kind != JsonValue::kArray) {
    std::fprintf(stderr, "aptperf: %s: no events array\n", args[0].c_str());
    return 2;
  }
  for (const JsonValue& e : events->arr) {
    if (e.kind != JsonValue::kObject) continue;
    std::ostringstream line;
    line << "#" << static_cast<std::int64_t>(e.NumOr("seq", -1.0));
    if (const JsonValue* sim = e.Find("sim_s")) line << "  sim=" << sim->num << "s";
    const std::string* kind = e.StrOrNull("kind");
    line << "  " << (kind != nullptr ? *kind : std::string("?"));
    if (const std::string* label = e.StrOrNull("label")) line << " " << *label;
    if (const JsonValue* eargs = e.Find("args");
        eargs != nullptr && eargs->kind == JsonValue::kObject) {
      for (const auto& [key, v] : eargs->obj) {
        line << "  " << key << "=";
        if (v.kind == JsonValue::kString) {
          line << v.str;
        } else if (v.kind == JsonValue::kNumber) {
          line << v.num;
        }
      }
    }
    std::printf("%s\n", line.str().c_str());
  }
  return 0;
}

/// Loads a telemetry timeline JSONL export: schema-checked header line,
/// then one window row per line, grouped per series in window order.
bool LoadTimeline(const std::string& path,
                  std::map<std::string, std::vector<apt::obs::WindowStats>>* out,
                  std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = path + ": cannot open";
    return false;
  }
  std::string line;
  bool saw_header = false;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    JsonValue v;
    std::string parse_error;
    if (!apt::obs::ParseJson(line, &v, &parse_error)) {
      *error = path + ":" + std::to_string(lineno) + ": " + parse_error;
      return false;
    }
    if (!saw_header) {
      const JsonValue* version = v.Find("schema_version");
      const JsonValue* meta = v.Find("meta");
      const std::string* kind =
          meta != nullptr ? meta->StrOrNull("kind") : nullptr;
      if (version == nullptr || version->kind != JsonValue::kNumber ||
          static_cast<std::int64_t>(version->num) > apt::obs::kObsSchemaVersion ||
          kind == nullptr || *kind != "telemetry") {
        *error = path + ": not a telemetry timeline (bad header line)";
        return false;
      }
      saw_header = true;
      continue;
    }
    const std::string* series = v.StrOrNull("series");
    if (series == nullptr) continue;
    apt::obs::WindowStats w;
    w.window = static_cast<std::int64_t>(v.NumOr("window", -1.0));
    w.t0_s = v.NumOr("t0_s", 0.0);
    w.t1_s = v.NumOr("t1_s", 0.0);
    w.count = static_cast<std::int64_t>(v.NumOr("count", 0.0));
    w.sum = v.NumOr("sum", 0.0);
    w.min = v.NumOr("min", 0.0);
    w.max = v.NumOr("max", 0.0);
    w.p50 = v.NumOr("p50", 0.0);
    w.p95 = v.NumOr("p95", 0.0);
    w.p99 = v.NumOr("p99", 0.0);
    (*out)[*series].push_back(w);
  }
  if (!saw_header) {
    *error = path + ": empty file (no header line)";
    return false;
  }
  return true;
}

int CmdTimeline(const std::vector<std::string>& args) {
  std::string path, series_filter;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (TakeValueFlag(args, &i, "--series", &series_filter)) continue;
    if (path.empty()) {
      path = args[i];
    } else {
      return Usage();
    }
  }
  if (path.empty()) return Usage();
  std::map<std::string, std::vector<apt::obs::WindowStats>> timeline;
  std::string error;
  if (!LoadTimeline(path, &timeline, &error)) {
    std::fprintf(stderr, "aptperf: %s\n", error.c_str());
    return 2;
  }
  bool any = false;
  for (const auto& [series, windows] : timeline) {
    if (!series_filter.empty() && series != series_filter) continue;
    any = true;
    std::printf("%s  (%zu windows)\n", series.c_str(), windows.size());
    std::printf("  %10s %12s %12s %8s %12s %12s %12s %12s %12s\n", "window",
                "t0_s", "t1_s", "count", "mean", "p50", "p95", "p99", "max");
    for (const apt::obs::WindowStats& w : windows) {
      std::printf("  %10lld %12.6f %12.6f %8lld %12.6g %12.6g %12.6g %12.6g "
                  "%12.6g\n",
                  static_cast<long long>(w.window), w.t0_s, w.t1_s,
                  static_cast<long long>(w.count), w.Mean(), w.p50, w.p95,
                  w.p99, w.max);
    }
  }
  if (!any && !series_filter.empty()) {
    std::fprintf(stderr, "aptperf: %s has no series %s\n", path.c_str(),
                 series_filter.c_str());
    return 2;
  }
  return 0;
}

int CmdSlo(const std::vector<std::string>& args) {
  std::string path;
  std::vector<apt::obs::SloRule> rules;
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string value;
    if (TakeValueFlag(args, &i, "--rule", &value)) {
      apt::obs::SloRule rule;
      std::string error;
      if (!apt::obs::ParseSloRule(value, &rule, &error)) {
        std::fprintf(stderr, "aptperf: bad --rule \"%s\": %s\n", value.c_str(),
                     error.c_str());
        return 2;
      }
      rules.push_back(std::move(rule));
      continue;
    }
    if (path.empty()) {
      path = args[i];
    } else {
      return Usage();
    }
  }
  if (path.empty() || rules.empty()) return Usage();
  std::map<std::string, std::vector<apt::obs::WindowStats>> timeline;
  std::string error;
  if (!LoadTimeline(path, &timeline, &error)) {
    std::fprintf(stderr, "aptperf: %s\n", error.c_str());
    return 2;
  }
  // Same firing semantics as the in-process watchdog (obs/slo.h): windows
  // under min_count are skipped, and a violation only fires after
  // sustain_windows consecutive violating windows.
  int violations = 0;
  for (const apt::obs::SloRule& rule : rules) {
    const auto it = timeline.find(rule.series);
    if (it == timeline.end()) {
      std::printf("%-40s  no windows for series %s — SKIP\n",
                  rule.name.c_str(), rule.series.c_str());
      continue;
    }
    int streak = 0, fired = 0;
    std::int64_t evaluated = 0;
    double worst = 0.0;
    std::int64_t worst_window = -1;
    for (const apt::obs::WindowStats& w : it->second) {
      if (w.count < rule.min_count) continue;
      ++evaluated;
      const double value = apt::obs::SloStatOf(w, rule.stat);
      const bool healthy = rule.cmp == apt::obs::SloCmp::kLt
                               ? value < rule.bound
                               : value > rule.bound;
      if (healthy) {
        streak = 0;
        continue;
      }
      ++streak;
      if (streak >= rule.sustain_windows) {
        ++fired;
        if (worst_window < 0 ||
            (rule.cmp == apt::obs::SloCmp::kLt ? value > worst
                                               : value < worst)) {
          worst = value;
          worst_window = w.window;
        }
      }
    }
    if (fired == 0) {
      std::printf("%-40s  OK over %lld windows\n", rule.name.c_str(),
                  static_cast<long long>(evaluated));
    } else {
      violations += fired;
      std::printf("%-40s  VIOLATED in %d of %lld windows (worst %s=%g %s %g "
                  "at window %lld)\n",
                  rule.name.c_str(), fired, static_cast<long long>(evaluated),
                  apt::obs::ToString(rule.stat), worst,
                  rule.cmp == apt::obs::SloCmp::kLt ? ">=" : "<=", rule.bound,
                  static_cast<long long>(worst_window));
    }
  }
  return violations == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) args.emplace_back(argv[i]);
  if (cmd == "report") return CmdReport(args);
  if (cmd == "diff") return CmdDiff(args);
  if (cmd == "gate") return CmdGate(args);
  if (cmd == "merge") return CmdMerge(args);
  if (cmd == "flight") return CmdFlight(args);
  if (cmd == "timeline") return CmdTimeline(args);
  if (cmd == "slo") return CmdSlo(args);
  return Usage();
}
