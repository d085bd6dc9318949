#include "obs/analysis.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

namespace apt::obs {

namespace {

constexpr double kUsToS = 1e-6;
/// Category of the engine's step/epoch marker spans (trainer hooks).
constexpr const char* kEngineCat = "engine";
/// Category of the serving engine's request/batch/shed spans. Like engine
/// markers they live on the marker lane — and their timestamps are WALL
/// simulated time (queueing included), a different time base from the
/// device lanes' busy-clock slices — so they must not enter the device
/// window or phase accounting.
constexpr const char* kServeCat = "serve";

bool IsCommOp(const std::string& name) {
  return name == "alltoall" || name == "allreduce" || name == "allbroadcast" ||
         name == "wait" || name == "fault.collective" || name == "pipeline.stall";
}

/// Pipelined replay tags comm-STREAM slices with {"stream":"comm"}; they
/// live on the gpuN.comm lanes and are accounted separately so the
/// compute-timeline phase maxima keep matching EpochStats.
bool IsCommStreamSlice(const SliceRec& s) {
  const auto it = s.str_args.find("stream");
  return it != s.str_args.end() && it->second == "comm";
}

double MapOr(const std::map<std::string, double>& m, const std::string& k,
             double fallback) {
  const auto it = m.find(k);
  return it == m.end() ? fallback : it->second;
}

/// Nearest-rank percentile over an ascending-sorted vector.
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank > 0) --rank;
  if (rank >= sorted.size()) rank = sorted.size() - 1;
  return sorted[rank];
}

struct LaneSlices {
  std::int32_t lane = 0;
  std::vector<const SliceRec*> slices;  ///< positive-duration, sorted by End
};

/// Reconstructs the chain of slices that determines the track's end time by
/// walking backward from t_end: at each cursor position pick the slice that
/// ends there (preferring real work over pipeline stalls over barrier waits,
/// and staying on the current lane when possible); when nothing ends at the
/// cursor, fall into a slice spanning it (truncated) or an idle gap. Segment
/// durations sum to t_end - t_begin by construction.
///
/// A pipeline stall is idle time waiting on the comm stream, so the comm
/// chunk whose delivery released the stalled compute is the true critical
/// work: ranking stalls below real ops lets the walk pivot onto the comm
/// lane through stall windows instead of attributing the wait to the stall
/// slice itself.
int SliceRank(const SliceRec* s) {
  if (s->name == "wait") return 0;
  if (s->name == "pipeline.stall") return 2;
  return 4;
}

void BuildCriticalPath(const std::vector<LaneSlices>& lanes, double t_begin,
                       double t_end, TraceAnalysis* out) {
  const double tol = 1e-9 * std::max(1.0, std::abs(t_end)) + 1e-15;
  double t = t_end;
  std::int32_t cur_lane = -1;
  std::vector<CriticalSeg> path;  // built newest-first, reversed at the end

  const auto end_less = [](const SliceRec* s, double v) { return s->End() < v; };

  // Bounded by the total slice count plus one gap per slice.
  std::size_t total = 0;
  for (const LaneSlices& l : lanes) total += l.slices.size();
  std::size_t guard = 2 * total + 4;

  while (t > t_begin + tol && guard-- > 0) {
    // Candidates ending at the cursor.
    const SliceRec* pick = nullptr;
    int pick_score = -1;
    const SliceRec* spanning = nullptr;
    int span_score = -1;
    double latest_end_before = t_begin;
    for (const LaneSlices& l : lanes) {
      const auto it = std::lower_bound(l.slices.begin(), l.slices.end(), t - tol,
                                       end_less);
      if (it != l.slices.end() && (*it)->End() <= t + tol) {
        const SliceRec* s = *it;
        const int score = SliceRank(s) + (l.lane == cur_lane ? 1 : 0);
        if (score > pick_score) {
          pick = s;
          pick_score = score;
        }
      }
      if (it != l.slices.begin()) {
        // The nearest earlier end on this lane (for gap jumps), and the slice
        // ending at-or-after the cursor may START before it (spanning case).
        latest_end_before = std::max(latest_end_before, (*std::prev(it))->End());
      }
      if (it != l.slices.end() && (*it)->t0_s < t - tol && (*it)->End() > t + tol) {
        const SliceRec* s = *it;
        const int score = SliceRank(s) + (l.lane == cur_lane ? 1 : 0);
        if (score > span_score) {
          spanning = s;
          span_score = score;
        }
      }
    }

    if (pick != nullptr) {
      path.push_back({pick->lane, pick->t0_s, pick->dur_s, pick->name, pick->cat});
      t = pick->t0_s;
      cur_lane = pick->lane;
    } else if (spanning != nullptr) {
      // Nothing ends here but a slice is underway: attribute the portion up
      // to the cursor and continue from its start.
      path.push_back({spanning->lane, spanning->t0_s, t - spanning->t0_s,
                      spanning->name, spanning->cat});
      t = spanning->t0_s;
      cur_lane = spanning->lane;
    } else {
      // True idle gap back to the latest earlier activity (or the window
      // start).
      const double to = std::max(t_begin, std::min(latest_end_before, t));
      path.push_back({-1, to, t - to, "idle", ""});
      t = to;
      cur_lane = -1;
      if (to <= t_begin + tol) break;
    }
  }

  std::reverse(path.begin(), path.end());
  out->critical_path = std::move(path);
  out->critical_total_s = 0.0;
  out->critical_by_name_s.clear();
  for (const CriticalSeg& seg : out->critical_path) {
    out->critical_total_s += seg.dur_s;
    out->critical_by_name_s[seg.name] += seg.dur_s;
  }
}

/// The analyzer core shared by the in-memory and file front doors.
TraceSet AnalyzeSlices(
    const std::vector<SliceRec>& slices,
    const std::map<std::int32_t, std::string>& track_labels,
    const std::map<std::int32_t, std::map<std::string, std::int64_t>>& traffic,
    std::int64_t dropped) {
  TraceSet set;
  set.dropped_events = dropped;

  // Host side: wall-time stage sums keyed "cat/name".
  std::map<std::string, std::map<std::int32_t, double>> host_lane_sums;
  for (const SliceRec& s : slices) {
    if (s.domain != Domain::kReal) continue;
    const std::string key = s.cat + "/" + s.name;
    StageSum& sum = set.host_stages[key];
    sum.total_s += s.dur_s;
    ++sum.count;
    host_lane_sums[key][s.lane] += s.dur_s;
  }
  for (auto& [key, lanes] : host_lane_sums) {
    double mx = 0.0;
    for (const auto& [lane, v] : lanes) mx = std::max(mx, v);
    set.host_stages[key].max_lane_s = mx;
  }

  // Sim side: group by pid.
  std::map<std::int32_t, std::vector<const SliceRec*>> by_pid;
  for (const SliceRec& s : slices) {
    if (s.domain == Domain::kSim) by_pid[s.pid].push_back(&s);
  }

  for (const auto& [pid, recs] : by_pid) {
    TraceAnalysis a;
    a.pid = pid;
    const auto label_it = track_labels.find(pid);
    if (label_it != track_labels.end()) a.track_label = label_it->second;
    const auto traffic_it = traffic.find(pid);
    if (traffic_it != traffic.end()) a.traffic_bytes = traffic_it->second;

    // Split device slices from engine marker spans and serving spans.
    std::vector<const SliceRec*> device;
    std::vector<const SliceRec*> markers;
    std::vector<const SliceRec*> serve;
    for (const SliceRec* s : recs) {
      if (s->cat == kEngineCat) {
        markers.push_back(s);
      } else if (s->cat == kServeCat) {
        serve.push_back(s);
      } else {
        device.push_back(s);
      }
    }
    if (device.empty() && markers.empty() && serve.empty()) continue;

    // Window.
    bool first = true;
    for (const SliceRec* s : device) {
      if (first) {
        a.t_begin_s = s->t0_s;
        a.t_end_s = s->End();
        first = false;
      } else {
        a.t_begin_s = std::min(a.t_begin_s, s->t0_s);
        a.t_end_s = std::max(a.t_end_s, s->End());
      }
    }
    a.wall_s = a.t_end_s - a.t_begin_s;

    // Per-lane per-phase sums -> phase max/total, comm max; per-stage sums.
    std::map<std::int32_t, std::map<std::string, double>> lane_phase;
    std::map<std::int32_t, std::map<std::string, double>> lane_comm;
    std::map<std::int32_t, std::map<std::string, double>> lane_op;
    std::map<std::string, std::map<std::int32_t, double>> stage_lane;
    std::map<std::int32_t, std::map<std::string, double>> comm_stream_lane;
    std::map<std::int32_t, LaneSlices> lanes;
    for (const SliceRec* s : device) {
      if (IsCommStreamSlice(*s)) {
        // Comm-stream slice: its own per-phase accounting, and it still
        // joins the critical-path lanes — the path walks BOTH streams.
        comm_stream_lane[s->lane][s->cat] += s->dur_s;
        a.comm_stream_total_s[s->cat] += s->dur_s;
        if (s->dur_s > 0.0) {
          LaneSlices& l = lanes[s->lane];
          l.lane = s->lane;
          l.slices.push_back(s);
        }
        continue;
      }
      if (s->name == "pipeline.stall") a.stall_total_s += s->dur_s;
      lane_phase[s->lane][s->cat] += s->dur_s;
      a.phase_total_s[s->cat] += s->dur_s;
      if (IsCommOp(s->name)) {
        lane_comm[s->lane][s->cat] += s->dur_s;
        lane_op[s->lane][s->name] += s->dur_s;
      }
      const std::string key = s->cat + "/" + s->name;
      StageSum& sum = a.by_name[key];
      sum.total_s += s->dur_s;
      ++sum.count;
      stage_lane[key][s->lane] += s->dur_s;
      if (s->dur_s > 0.0) {
        LaneSlices& l = lanes[s->lane];
        l.lane = s->lane;
        l.slices.push_back(s);
      }
    }
    a.num_device_lanes = static_cast<std::int32_t>(lane_phase.size());
    a.num_comm_lanes = static_cast<std::int32_t>(comm_stream_lane.size());
    for (const auto& [lane, phases] : lane_phase) {
      for (const auto& [cat, v] : phases) {
        a.phase_max_s[cat] = std::max(MapOr(a.phase_max_s, cat, 0.0), v);
      }
    }
    for (const auto& [lane, phases] : comm_stream_lane) {
      for (const auto& [cat, v] : phases) {
        a.comm_stream_max_s[cat] = std::max(MapOr(a.comm_stream_max_s, cat, 0.0), v);
      }
    }
    for (const auto& [lane, phases] : lane_comm) {
      for (const auto& [cat, v] : phases) {
        a.comm_max_s[cat] = std::max(MapOr(a.comm_max_s, cat, 0.0), v);
      }
    }
    for (const auto& [lane, ops] : lane_op) {
      for (const auto& [op, v] : ops) {
        a.comm_by_op_s[op] = std::max(MapOr(a.comm_by_op_s, op, 0.0), v);
      }
    }
    for (auto& [key, per_lane] : stage_lane) {
      double mx = 0.0;
      for (const auto& [lane, v] : per_lane) mx = std::max(mx, v);
      a.by_name[key].max_lane_s = mx;
    }

    // Critical path over positive-duration device slices.
    if (!lanes.empty()) {
      std::vector<LaneSlices> lane_vec;
      lane_vec.reserve(lanes.size());
      for (auto& [lane, l] : lanes) {
        std::sort(l.slices.begin(), l.slices.end(),
                  [](const SliceRec* x, const SliceRec* y) {
                    return x->End() < y->End();
                  });
        lane_vec.push_back(std::move(l));
      }
      BuildCriticalPath(lane_vec, a.t_begin_s, a.t_end_s, &a);
    }

    // Engine markers: strategy labels + step latency distribution.
    std::vector<double> step_s;
    for (const SliceRec* s : markers) {
      const auto strat = s->str_args.find("strategy");
      if (strat != s->str_args.end()) a.strategy = strat->second;
      if (s->name == "step") {
        step_s.push_back(s->dur_s);
        // Sampled-execution fast-forwarded steps (tape replay, extrapolated
        // loss/accuracy) mark themselves; the report flags the track.
        if (MapOr(s->num_args, "fast_forward", 0.0) != 0.0) {
          ++a.steps_fast_forwarded;
        }
      }
    }
    if (!step_s.empty()) {
      std::sort(step_s.begin(), step_s.end());
      a.steps.count = static_cast<std::int64_t>(step_s.size());
      double sum = 0.0;
      for (double v : step_s) sum += v;
      a.steps.mean_s = sum / static_cast<double>(step_s.size());
      a.steps.p50_s = Percentile(step_s, 0.50);
      a.steps.p95_s = Percentile(step_s, 0.95);
      a.steps.p99_s = Percentile(step_s, 0.99);
      a.steps.max_s = step_s.back();
    }

    // Serving spans: request-latency distribution, batch occupancy, sheds.
    std::vector<double> request_s;
    double batch_rows_sum = 0.0;
    for (const SliceRec* s : serve) {
      if (s->name == "request") {
        request_s.push_back(s->dur_s);
      } else if (s->name == "shed") {
        ++a.serve.shed;
      } else if (s->name == "batch") {
        ++a.serve.batches;
        const double rows = MapOr(s->num_args, "rows", 0.0);
        batch_rows_sum += rows;
        a.serve.max_batch_rows = std::max(a.serve.max_batch_rows, rows);
      }
    }
    if (!request_s.empty()) {
      std::sort(request_s.begin(), request_s.end());
      a.serve.latency.count = static_cast<std::int64_t>(request_s.size());
      double sum = 0.0;
      for (double v : request_s) sum += v;
      a.serve.latency.mean_s = sum / static_cast<double>(request_s.size());
      a.serve.latency.p50_s = Percentile(request_s, 0.50);
      a.serve.latency.p95_s = Percentile(request_s, 0.95);
      a.serve.latency.p99_s = Percentile(request_s, 0.99);
      a.serve.latency.max_s = request_s.back();
    }
    if (a.serve.batches > 0) {
      a.serve.mean_batch_rows =
          batch_rows_sum / static_cast<double>(a.serve.batches);
    }

    set.tracks.push_back(std::move(a));
  }
  return set;
}

bool CheckSchemaHeader(const JsonValue& doc, const std::string& path,
                       const char* expected_kind, std::string* error) {
  const JsonValue* version = doc.Find("schema_version");
  if (version == nullptr || version->kind != JsonValue::kNumber) {
    if (error != nullptr) {
      *error = path +
               ": missing schema_version (not an apt::obs file, or written "
               "before formats were versioned)";
    }
    return false;
  }
  const auto v = static_cast<std::int64_t>(version->num);
  if (v < 1 || v > kObsSchemaVersion) {
    if (error != nullptr) {
      *error = path + ": schema_version " + std::to_string(v) +
               " is not supported (this build reads up to version " +
               std::to_string(kObsSchemaVersion) + ")";
    }
    return false;
  }
  if (expected_kind != nullptr) {
    const JsonValue* meta = doc.Find("meta");
    const std::string* kind = meta != nullptr ? meta->StrOrNull("kind") : nullptr;
    if (kind == nullptr || *kind != expected_kind) {
      if (error != nullptr) {
        *error = path + ": expected a \"" + expected_kind + "\" file but meta.kind is " +
                 (kind != nullptr ? "\"" + *kind + "\"" : "absent");
      }
      return false;
    }
  }
  return true;
}

// --- formatting helpers ----------------------------------------------------

std::string Ms(double seconds) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(3) << seconds * 1e3 << "ms";
  return os.str();
}

std::string Pct(double rel) {
  std::ostringstream os;
  os << std::showpos << std::fixed << std::setprecision(1) << rel * 100.0 << "%";
  return os.str();
}

std::string Num(double v) {
  std::ostringstream os;
  os << std::setprecision(6) << v;
  return os.str();
}

void WriteTrackReport(std::ostream& os, const TraceAnalysis& a) {
  os << "== sim[" << a.pid << "] " << (a.track_label.empty() ? "?" : a.track_label);
  if (!a.strategy.empty()) os << "  strategy=" << a.strategy;
  os << " ==\n";
  os << "  window: wall " << Ms(a.wall_s) << "  stacked " << Ms(a.StackedSeconds())
     << "  comparable " << Ms(a.ComparableSeconds()) << "  lanes "
     << a.num_device_lanes << "\n";

  os << "  phases (max-lane busy / total / comm-max):\n";
  for (const char* cat : {"sample", "load", "train"}) {
    if (a.phase_max_s.count(cat) == 0 && a.phase_total_s.count(cat) == 0) continue;
    os << "    " << std::left << std::setw(8) << cat << std::right << " "
       << std::setw(12) << Ms(MapOr(a.phase_max_s, cat, 0.0)) << " / " << std::setw(12)
       << Ms(MapOr(a.phase_total_s, cat, 0.0)) << " / " << std::setw(12)
       << Ms(MapOr(a.comm_max_s, cat, 0.0)) << "\n";
  }
  for (const auto& [cat, v] : a.phase_max_s) {
    if (cat == "sample" || cat == "load" || cat == "train") continue;
    os << "    " << std::left << std::setw(8) << cat << std::right << " "
       << std::setw(12) << Ms(v) << " / " << std::setw(12)
       << Ms(MapOr(a.phase_total_s, cat, 0.0)) << "\n";
  }

  // Stages sorted by descending max-lane time.
  std::vector<std::pair<std::string, const StageSum*>> stages;
  stages.reserve(a.by_name.size());
  for (const auto& [key, sum] : a.by_name) stages.emplace_back(key, &sum);
  std::sort(stages.begin(), stages.end(), [](const auto& x, const auto& y) {
    return x.second->max_lane_s > y.second->max_lane_s;
  });
  os << "  stages (max-lane / total / count):\n";
  for (const auto& [key, sum] : stages) {
    os << "    " << std::left << std::setw(24) << key << std::right << " "
       << std::setw(12) << Ms(sum->max_lane_s) << " / " << std::setw(12)
       << Ms(sum->total_s) << " / " << sum->count << "\n";
  }

  if (!a.comm_by_op_s.empty()) {
    os << "  comm by op (max-lane):";
    for (const auto& [op, v] : a.comm_by_op_s) os << "  " << op << "=" << Ms(v);
    os << "\n";
  }
  if (a.num_comm_lanes > 0) {
    double busy = 0.0;
    for (const auto& [cat, v] : a.comm_stream_total_s) busy += v;
    os << "  pipeline: comm-stream busy " << Ms(busy) << "  exposed "
       << Ms(a.stall_total_s) << "  overlap efficiency " << std::fixed
       << std::setprecision(1) << a.OverlapEfficiency() * 100.0 << "%  ("
       << a.num_comm_lanes << " comm lanes)\n";
  }
  if (!a.traffic_bytes.empty()) {
    // Each class shows logical (fp32) bytes and, when a codec is active,
    // what actually crossed the links ("<class>.wire" counter keys).
    std::int64_t total_logical = 0, total_wire = 0;
    os << "  traffic bytes (raw / wire):";
    for (const auto& [cls, bytes] : a.traffic_bytes) {
      if (cls.size() > 5 && cls.compare(cls.size() - 5, 5, ".wire") == 0) continue;
      const auto wire_it = a.traffic_bytes.find(cls + ".wire");
      const std::int64_t wire =
          wire_it != a.traffic_bytes.end() ? wire_it->second : bytes;
      os << "  " << cls << "=" << bytes;
      if (wire != bytes) os << "/" << wire;
      total_logical += bytes;
      total_wire += wire;
    }
    os << "\n";
    if (total_wire > 0 && total_wire != total_logical) {
      os << "  compression ratio: " << std::fixed << std::setprecision(2)
         << static_cast<double>(total_logical) / static_cast<double>(total_wire)
         << "x (" << total_logical << " raw -> " << total_wire << " wire)\n";
      os.unsetf(std::ios::fixed);
      os << std::setprecision(6);
    }
  }

  if (!a.critical_path.empty()) {
    os << "  critical path: total " << Ms(a.critical_total_s) << " over "
       << a.critical_path.size() << " segments\n";
    std::vector<std::pair<std::string, double>> by_name(a.critical_by_name_s.begin(),
                                                        a.critical_by_name_s.end());
    std::sort(by_name.begin(), by_name.end(),
              [](const auto& x, const auto& y) { return x.second > y.second; });
    for (const auto& [name, v] : by_name) {
      os << "    " << std::left << std::setw(20) << name << std::right << " "
         << std::setw(12) << Ms(v) << "  ("
         << std::fixed << std::setprecision(1)
         << (a.critical_total_s > 0.0 ? v / a.critical_total_s * 100.0 : 0.0)
         << "%)\n";
    }
  }

  if (a.steps.count > 0) {
    os << "  steps: n=" << a.steps.count << "  mean " << Ms(a.steps.mean_s) << "  p50 "
       << Ms(a.steps.p50_s) << "  p95 " << Ms(a.steps.p95_s) << "  p99 "
       << Ms(a.steps.p99_s) << "  max " << Ms(a.steps.max_s);
    if (a.steps_fast_forwarded > 0) {
      os << "  [EXTRAPOLATED: " << a.steps_fast_forwarded
         << " fast-forwarded (sampled execution) — timing exact-model, "
            "loss/accuracy from probe steps]";
    }
    os << "\n";
  }
  if (a.serve.Any()) {
    os << "  serving: requests n=" << a.serve.latency.count << "  shed "
       << a.serve.shed << "\n";
    if (a.serve.latency.count > 0) {
      os << "    request latency: mean " << Ms(a.serve.latency.mean_s)
         << "  p50 " << Ms(a.serve.latency.p50_s) << "  p95 "
         << Ms(a.serve.latency.p95_s) << "  p99 " << Ms(a.serve.latency.p99_s)
         << "  max " << Ms(a.serve.latency.max_s) << "\n";
    }
    if (a.serve.batches > 0) {
      os << "    batches: n=" << a.serve.batches << "  occupancy mean "
         << std::fixed << std::setprecision(1) << a.serve.mean_batch_rows
         << " rows  max " << std::setprecision(0) << a.serve.max_batch_rows
         << " rows\n";
      os.unsetf(std::ios::fixed);
      os << std::setprecision(6);
    }
  }
  os << "\n";
}

}  // namespace

double TraceAnalysis::StackedSeconds() const {
  return MapOr(phase_max_s, "sample", 0.0) + MapOr(phase_max_s, "load", 0.0) +
         MapOr(phase_max_s, "train", 0.0);
}

double TraceAnalysis::ComparableSeconds() const {
  return MapOr(phase_max_s, "sample", 0.0) + MapOr(phase_max_s, "load", 0.0) +
         MapOr(comm_max_s, "train", 0.0);
}

double TraceAnalysis::OverlapEfficiency() const {
  double busy = 0.0;
  for (const auto& [cat, v] : comm_stream_total_s) busy += v;
  if (busy <= 0.0) return 0.0;
  return std::min(1.0, std::max(0.0, (busy - stall_total_s) / busy));
}

const TraceAnalysis* TraceSet::ByStrategy(const std::string& strategy) const {
  for (const TraceAnalysis& a : tracks) {
    if (a.strategy == strategy) return &a;
  }
  return nullptr;
}

std::vector<const TraceAnalysis*> TraceSet::MarkedTracks() const {
  std::vector<const TraceAnalysis*> out;
  for (const TraceAnalysis& a : tracks) {
    if (!a.strategy.empty() || a.steps.count > 0) out.push_back(&a);
  }
  return out;
}

TraceSet AnalyzeEvents(const std::vector<TraceEvent>& events,
                       const std::vector<SimTrackInfo>& sim_tracks) {
  std::vector<SliceRec> slices;
  slices.reserve(events.size());
  std::map<std::int32_t, std::map<std::string, std::int64_t>> traffic;
  for (const TraceEvent& e : events) {
    if (e.ph == 'C') {
      if (e.name != nullptr && std::string_view(e.name) == "traffic_bytes") {
        for (int i = 0; i < e.num_args; ++i) {
          const TraceArg& arg = e.args[static_cast<std::size_t>(i)];
          if (arg.key == nullptr || arg.str != nullptr) continue;
          auto& cell = traffic[e.pid][arg.key];
          cell = std::max(cell, static_cast<std::int64_t>(arg.num));
        }
      }
      continue;
    }
    if (e.ph != 'X') continue;
    SliceRec s;
    s.pid = e.pid;
    s.lane = e.tid;
    s.t0_s = e.ts_us * kUsToS;
    s.dur_s = e.dur_us * kUsToS;
    s.domain = e.domain;
    if (e.name != nullptr) s.name = e.name;
    if (e.cat != nullptr) s.cat = e.cat;
    for (int i = 0; i < e.num_args; ++i) {
      const TraceArg& arg = e.args[static_cast<std::size_t>(i)];
      if (arg.key == nullptr) continue;
      if (arg.str != nullptr) {
        s.str_args[arg.key] = arg.str;
      } else {
        s.num_args[arg.key] = arg.num;
      }
    }
    slices.push_back(std::move(s));
  }
  std::map<std::int32_t, std::string> labels;
  for (const SimTrackInfo& t : sim_tracks) labels[t.pid] = t.label;
  return AnalyzeSlices(slices, labels, traffic, Tracer::Global().DroppedEvents());
}

bool AnalyzeTraceFile(const std::string& path, TraceSet* out, std::string* error) {
  JsonValue doc;
  if (!ParseJsonFile(path, &doc, error)) return false;
  if (!CheckSchemaHeader(doc, path, "trace", error)) return false;

  const JsonValue* events = doc.Find("traceEvents");
  if (events == nullptr || events->kind != JsonValue::kArray) {
    if (error != nullptr) *error = path + ": no traceEvents array";
    return false;
  }

  std::vector<SliceRec> slices;
  std::map<std::int32_t, std::string> labels;
  std::map<std::int32_t, std::map<std::string, std::int64_t>> traffic;
  for (const JsonValue& e : events->arr) {
    if (e.kind != JsonValue::kObject) continue;
    const std::string* ph = e.StrOrNull("ph");
    if (ph == nullptr) continue;
    const auto pid = static_cast<std::int32_t>(e.NumOr("pid", 0.0));
    if (*ph == "M") {
      const std::string* name = e.StrOrNull("name");
      const JsonValue* margs = e.Find("args");
      if (name != nullptr && *name == "process_name" && margs != nullptr) {
        const std::string* value = margs->StrOrNull("name");
        if (value != nullptr) {
          std::string label = *value;
          // The exporter prefixes sim process names with "sim[<pid>] ";
          // strip it so file-loaded labels match in-memory track labels
          // (reports add the prefix themselves).
          if (label.rfind("sim[", 0) == 0) {
            const std::size_t close = label.find("] ");
            if (close != std::string::npos) label = label.substr(close + 2);
          }
          labels[pid] = label;
        }
      }
      continue;
    }
    if (*ph == "C") {
      const std::string* name = e.StrOrNull("name");
      const JsonValue* cargs = e.Find("args");
      if (name != nullptr && *name == "traffic_bytes" && cargs != nullptr &&
          cargs->kind == JsonValue::kObject) {
        for (const auto& [key, v] : cargs->obj) {
          if (v.kind != JsonValue::kNumber) continue;
          auto& cell = traffic[pid][key];
          cell = std::max(cell, static_cast<std::int64_t>(v.num));
        }
      }
      continue;
    }
    if (*ph != "X") continue;
    SliceRec s;
    s.pid = pid;
    s.lane = static_cast<std::int32_t>(e.NumOr("tid", 0.0));
    s.t0_s = e.NumOr("ts", 0.0) * kUsToS;
    s.dur_s = e.NumOr("dur", 0.0) * kUsToS;
    s.domain = pid == kHostPid ? Domain::kReal : Domain::kSim;
    const std::string* name = e.StrOrNull("name");
    const std::string* cat = e.StrOrNull("cat");
    if (name != nullptr) s.name = *name;
    if (cat != nullptr) s.cat = *cat;
    const JsonValue* args = e.Find("args");
    if (args != nullptr && args->kind == JsonValue::kObject) {
      for (const auto& [key, v] : args->obj) {
        if (v.kind == JsonValue::kNumber) {
          s.num_args[key] = v.num;
        } else if (v.kind == JsonValue::kString) {
          s.str_args[key] = v.str;
        }
      }
    }
    slices.push_back(std::move(s));
  }

  std::int64_t dropped = 0;
  if (const JsonValue* meta = doc.Find("meta")) {
    dropped = static_cast<std::int64_t>(meta->NumOr("dropped_events", 0.0));
  }
  *out = AnalyzeSlices(slices, labels, traffic, dropped);
  return true;
}

void WriteReport(std::ostream& os, const TraceSet& set, bool all_tracks) {
  std::vector<const TraceAnalysis*> marked = set.MarkedTracks();
  const bool filter = !all_tracks && !marked.empty();
  std::size_t printed = 0;
  for (const TraceAnalysis& a : set.tracks) {
    if (filter && a.strategy.empty() && a.steps.count == 0) continue;
    WriteTrackReport(os, a);
    ++printed;
  }
  if (printed == 0) os << "(no simulated tracks in trace)\n\n";
  if (filter && printed < set.tracks.size()) {
    os << "(" << set.tracks.size() - printed
       << " unmarked tracks hidden; use --all to include dry-run probes)\n";
  }

  if (!set.host_stages.empty()) {
    std::vector<std::pair<std::string, const StageSum*>> stages;
    for (const auto& [key, sum] : set.host_stages) stages.emplace_back(key, &sum);
    std::sort(stages.begin(), stages.end(), [](const auto& x, const auto& y) {
      return x.second->total_s > y.second->total_s;
    });
    os << "== host (wall clock) ==\n";
    os << "  stages (max-lane / total / count):\n";
    for (const auto& [key, sum] : stages) {
      os << "    " << std::left << std::setw(24) << key << std::right << " "
         << std::setw(12) << Ms(sum->max_lane_s) << " / " << std::setw(12)
         << Ms(sum->total_s) << " / " << sum->count << "\n";
    }
  }
  if (set.dropped_events > 0) {
    os << "WARNING: " << set.dropped_events
       << " events were dropped at record time; sums are lower bounds.\n";
  }
}

// --- diff ------------------------------------------------------------------

DiffReport DiffAnalyses(const TraceAnalysis& a, const TraceAnalysis& b,
                        double threshold, double abs_floor_s) {
  DiffReport report;
  report.a_label = a.strategy.empty() ? a.track_label : a.strategy;
  report.b_label = b.strategy.empty() ? b.track_label : b.strategy;
  report.threshold = threshold;

  std::map<std::string, std::pair<double, double>> metrics;
  const auto put = [&metrics](const std::string& key, double va, double vb) {
    metrics[key] = {va, vb};
  };
  put("wall_s", a.wall_s, b.wall_s);
  put("stacked_s", a.StackedSeconds(), b.StackedSeconds());
  put("comparable_s", a.ComparableSeconds(), b.ComparableSeconds());
  const auto merge_maps = [&put](const std::string& prefix,
                                 const std::map<std::string, double>& ma,
                                 const std::map<std::string, double>& mb) {
    for (const auto& [k, v] : ma) put(prefix + k, v, MapOr(mb, k, 0.0));
    for (const auto& [k, v] : mb) {
      if (ma.count(k) == 0) put(prefix + k, 0.0, v);
    }
  };
  merge_maps("phase/", a.phase_max_s, b.phase_max_s);
  merge_maps("comm/", a.comm_max_s, b.comm_max_s);
  merge_maps("comm_op/", a.comm_by_op_s, b.comm_by_op_s);
  merge_maps("comm_stream/", a.comm_stream_max_s, b.comm_stream_max_s);
  if (a.num_comm_lanes > 0 || b.num_comm_lanes > 0) {
    put("pipeline/exposed_s", a.stall_total_s, b.stall_total_s);
    put("pipeline/overlap_efficiency", a.OverlapEfficiency(), b.OverlapEfficiency());
  }
  merge_maps("critical/", a.critical_by_name_s, b.critical_by_name_s);
  for (const auto& [k, v] : a.by_name) {
    const auto it = b.by_name.find(k);
    put("stage/" + k, v.max_lane_s, it != b.by_name.end() ? it->second.max_lane_s : 0.0);
  }
  for (const auto& [k, v] : b.by_name) {
    if (a.by_name.count(k) == 0) put("stage/" + k, 0.0, v.max_lane_s);
  }
  for (const auto& [k, v] : a.traffic_bytes) {
    const auto it = b.traffic_bytes.find(k);
    put("traffic/" + k, static_cast<double>(v),
        it != b.traffic_bytes.end() ? static_cast<double>(it->second) : 0.0);
  }
  for (const auto& [k, v] : b.traffic_bytes) {
    if (a.traffic_bytes.count(k) == 0) put("traffic/" + k, 0.0, static_cast<double>(v));
  }
  if (a.steps.count > 0 || b.steps.count > 0) {
    put("steps/p50_s", a.steps.p50_s, b.steps.p50_s);
    put("steps/p95_s", a.steps.p95_s, b.steps.p95_s);
    put("steps/p99_s", a.steps.p99_s, b.steps.p99_s);
  }
  if (a.serve.Any() || b.serve.Any()) {
    put("serve/latency_p50_s", a.serve.latency.p50_s, b.serve.latency.p50_s);
    put("serve/latency_p99_s", a.serve.latency.p99_s, b.serve.latency.p99_s);
    put("serve/mean_batch_rows", a.serve.mean_batch_rows,
        b.serve.mean_batch_rows);
    put("serve/shed", static_cast<double>(a.serve.shed),
        static_cast<double>(b.serve.shed));
  }

  for (const auto& [key, ab] : metrics) {
    DiffLine line;
    line.metric = key;
    line.a = ab.first;
    line.b = ab.second;
    const double delta = line.b - line.a;
    line.rel = delta / std::max(std::abs(line.a), 1e-12);
    const double scale = std::max(std::abs(line.a), std::abs(line.b));
    // Traffic counters (including the "<class>.wire" compressed-bytes keys)
    // are exact simulated byte counts, not timings: any drift is a real
    // behavioural change, so they get a much tighter threshold.
    const bool deterministic = key.rfind("traffic/", 0) == 0;
    const double eff_threshold =
        deterministic ? std::min(threshold, 1e-3) : threshold;
    line.significant = std::abs(delta) > abs_floor_s &&
                       scale > 0.0 && std::abs(delta) / scale >= eff_threshold;
    report.any_significant = report.any_significant || line.significant;
    report.lines.push_back(std::move(line));
  }
  // Significant lines first, each group by descending |delta|.
  std::stable_sort(report.lines.begin(), report.lines.end(),
                   [](const DiffLine& x, const DiffLine& y) {
                     if (x.significant != y.significant) return x.significant;
                     return std::abs(x.b - x.a) > std::abs(y.b - y.a);
                   });
  return report;
}

void DiffReport::WriteMarkdown(std::ostream& os) const {
  os << "### Trace diff: " << a_label << " -> " << b_label << "\n\n";
  os << "Noise threshold: " << Pct(threshold) << " relative.\n\n";
  os << "| metric | " << a_label << " | " << b_label << " | delta | rel |\n";
  os << "|---|---:|---:|---:|---:|\n";
  for (const DiffLine& line : lines) {
    os << "| " << (line.significant ? "**" + line.metric + "**" : line.metric)
       << " | " << Num(line.a) << " | " << Num(line.b) << " | "
       << Num(line.b - line.a) << " | " << Pct(line.rel) << " |\n";
  }
  os << "\n"
     << (any_significant ? "Significant stage-level changes found."
                         : "No change above the noise threshold.")
     << "\n";
}

// --- gate ------------------------------------------------------------------

bool LoadRecordsFile(const std::string& path, JsonValue* out, std::string* error) {
  if (!ParseJsonFile(path, out, error)) return false;
  return CheckSchemaHeader(*out, path, "bench_records", error);
}

std::map<std::string, std::map<std::string, double>> FlattenRecords(
    const JsonValue& records_doc) {
  std::map<std::string, std::map<std::string, double>> out;
  const JsonValue* records = records_doc.Find("records");
  if (records == nullptr || records->kind != JsonValue::kArray) return out;
  for (const JsonValue& rec : records->arr) {
    if (rec.kind != JsonValue::kObject) continue;
    if (const std::string* op = rec.StrOrNull("op")) {
      // Micro-bench record: one op/shape, wall time + sim_* counters.
      std::string key = *op;
      if (const std::string* shape = rec.StrOrNull("shape")) key += "/" + *shape;
      auto& metrics = out[key];
      for (const auto& [name, v] : rec.obj) {
        if (v.kind != JsonValue::kNumber) continue;
        if (name == "time_ns" || name.rfind("sim_", 0) == 0) metrics[name] = v.num;
      }
      continue;
    }
    if (const std::string* label = rec.StrOrNull("case")) {
      // Figure record: one simulated case, per-strategy epoch times (all
      // simulated quantities, so deterministic across machines).
      const JsonValue* strategies = rec.Find("strategies");
      if (strategies == nullptr || strategies->kind != JsonValue::kObject) continue;
      for (const auto& [strategy, sval] : strategies->obj) {
        if (sval.kind != JsonValue::kObject) continue;
        auto& metrics = out[*label + "/" + strategy];
        // Every sim_* metric is a deterministic simulated quantity (times,
        // byte counts, compression ratios); wall_seconds rides along for
        // informational diffs. Gating tolerance is picked per metric name.
        for (const auto& [name, v] : sval.obj) {
          if (v.kind != JsonValue::kNumber) continue;
          if (name == "wall_seconds" || name.rfind("sim_", 0) == 0) {
            metrics[name] = v.num;
          }
        }
      }
    }
  }
  return out;
}

GateReport RunGate(const JsonValue& baseline, const JsonValue& current,
                   const GateOptions& options) {
  GateReport report;
  const auto base = FlattenRecords(baseline);
  const auto cur = FlattenRecords(current);
  for (const auto& [key, base_metrics] : base) {
    const auto cur_it = cur.find(key);
    if (cur_it == cur.end()) {
      report.notes.push_back("baseline record missing from current run: " + key);
      continue;
    }
    for (const auto& [metric, base_value] : base_metrics) {
      const auto metric_it = cur_it->second.find(metric);
      if (metric_it == cur_it->second.end()) {
        report.notes.push_back("metric missing from current run: " + key + "." + metric);
        continue;
      }
      GateFinding f;
      f.key = key;
      f.metric = metric;
      f.base = base_value;
      f.current = metric_it->second;
      f.wall = metric == "time_ns";
      f.rel = (f.current - f.base) / std::max(std::abs(f.base), 1e-12);
      // Simulated byte counts (sim_wire_bytes, sim_compressed_bytes, ...)
      // are exact integers — any growth is a real behaviour change, so they
      // gate at a near-zero threshold instead of the timing tolerance.
      const bool byte_count = metric.size() > 6 &&
                              metric.compare(metric.size() - 6, 6, "_bytes") == 0;
      const double tolerance =
          f.wall ? options.wall_tolerance
                 : (byte_count ? std::min(options.sim_tolerance, 1e-6)
                               : options.sim_tolerance);
      f.regression = f.rel > tolerance && (!f.wall || options.gate_wall);
      ++report.compared;
      if (f.regression) ++report.regressions;
      report.findings.push_back(std::move(f));
    }
  }
  for (const auto& [key, metrics] : cur) {
    if (base.count(key) == 0) {
      report.notes.push_back("new record (not gated): " + key);
    }
  }
  std::stable_sort(report.findings.begin(), report.findings.end(),
                   [](const GateFinding& x, const GateFinding& y) {
                     if (x.regression != y.regression) return x.regression;
                     return x.rel > y.rel;
                   });
  return report;
}

void GateReport::WriteMarkdown(std::ostream& os) const {
  os << "### Perf gate: " << (Pass() ? "PASS" : "FAIL") << " (" << regressions
     << " regressions / " << compared << " metrics compared)\n\n";
  os << "| record | metric | baseline | current | rel | verdict |\n";
  os << "|---|---|---:|---:|---:|---|\n";
  for (const GateFinding& f : findings) {
    os << "| " << f.key << " | " << f.metric << " | " << Num(f.base) << " | "
       << Num(f.current) << " | " << Pct(f.rel) << " | "
       << (f.regression ? "**REGRESSION**"
                        : (f.rel < 0.0 ? "improved" : "ok"))
       << " |\n";
  }
  for (const std::string& note : notes) os << "\n- " << note;
  if (!notes.empty()) os << "\n";
}

// --- records merge / serialization -----------------------------------------

namespace {

void WriteValue(JsonWriter& w, const JsonValue& v) {
  switch (v.kind) {
    case JsonValue::kNull:
      w.RawValue("null");
      break;
    case JsonValue::kBool:
      w.Value(v.b);
      break;
    case JsonValue::kNumber:
      // Distinguish integral values so byte counts round-trip exactly.
      if (v.num == std::floor(v.num) && std::abs(v.num) < 9.0e15) {
        w.Value(static_cast<std::int64_t>(v.num));
      } else {
        w.Value(v.num);
      }
      break;
    case JsonValue::kString:
      w.Value(v.str);
      break;
    case JsonValue::kArray:
      w.BeginArray();
      for (const JsonValue& item : v.arr) WriteValue(w, item);
      w.EndArray();
      break;
    case JsonValue::kObject:
      w.BeginObject();
      for (const auto& [key, item] : v.obj) {
        w.Key(key);
        WriteValue(w, item);
      }
      w.EndObject();
      break;
  }
}

}  // namespace

JsonValue MergeRecordsDocs(const std::vector<const JsonValue*>& docs) {
  JsonValue out;
  out.kind = JsonValue::kObject;
  JsonValue version;
  version.kind = JsonValue::kNumber;
  version.num = static_cast<double>(kObsSchemaVersion);
  out.obj["schema_version"] = version;
  JsonValue records;
  records.kind = JsonValue::kArray;
  JsonValue meta;
  meta.kind = JsonValue::kObject;
  bool have_meta = false;
  for (const JsonValue* doc : docs) {
    if (doc == nullptr) continue;
    if (!have_meta) {
      if (const JsonValue* m = doc->Find("meta"); m != nullptr && m->kind == JsonValue::kObject) {
        meta = *m;
        have_meta = true;
      }
    }
    if (const JsonValue* r = doc->Find("records");
        r != nullptr && r->kind == JsonValue::kArray) {
      records.arr.insert(records.arr.end(), r->arr.begin(), r->arr.end());
    }
  }
  JsonValue kind;
  kind.kind = JsonValue::kString;
  kind.str = "bench_records";
  meta.obj["kind"] = kind;
  out.obj["meta"] = std::move(meta);
  out.obj["records"] = std::move(records);
  return out;
}

void WriteRecordsDoc(std::ostream& os, const JsonValue& doc) {
  JsonWriter w(os);
  w.BeginObject();
  w.KV("schema_version", kObsSchemaVersion);
  for (const auto& [key, v] : doc.obj) {
    if (key == "schema_version") continue;
    w.Key(key);
    WriteValue(w, v);
  }
  w.EndObject();
  os << "\n";
}

}  // namespace apt::obs
