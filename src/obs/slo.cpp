#include "obs/slo.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <utility>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace apt::obs {

const char* ToString(SloStat stat) {
  switch (stat) {
    case SloStat::kP50:
      return "p50";
    case SloStat::kP95:
      return "p95";
    case SloStat::kP99:
      return "p99";
    case SloStat::kMean:
      return "mean";
    case SloStat::kMin:
      return "min";
    case SloStat::kMax:
      return "max";
    case SloStat::kCount:
      return "count";
    case SloStat::kSkew:
      return "skew";
  }
  return "?";
}

const char* ToString(SloCmp cmp) { return cmp == SloCmp::kLt ? "<" : ">"; }

double SloStatOf(const WindowStats& window, SloStat stat) {
  switch (stat) {
    case SloStat::kP50:
      return window.p50;
    case SloStat::kP95:
      return window.p95;
    case SloStat::kP99:
      return window.p99;
    case SloStat::kMean:
      return window.Mean();
    case SloStat::kMin:
      return window.min;
    case SloStat::kMax:
      return window.max;
    case SloStat::kCount:
      return static_cast<double>(window.count);
    case SloStat::kSkew: {
      const double mean = window.Mean();
      return mean > 0.0 ? window.max / mean : 0.0;
    }
  }
  return 0.0;
}

bool ParseSloRule(const std::string& text, SloRule* out, std::string* error) {
  const auto fail = [&](const std::string& why) {
    if (error != nullptr) *error = "bad SLO rule \"" + text + "\": " + why;
    return false;
  };
  std::istringstream in(text);
  std::string series, stat, cmp, bound;
  in >> series >> stat >> cmp >> bound;
  std::string extra;
  if (in >> extra) return fail("trailing tokens");
  if (series.empty() || stat.empty() || cmp.empty() || bound.empty()) {
    return fail("expected \"<series> <stat> <cmp> <bound>[unit]\"");
  }

  SloRule rule;
  rule.name = text;
  rule.series = series;
  if (stat == "p50") {
    rule.stat = SloStat::kP50;
  } else if (stat == "p95") {
    rule.stat = SloStat::kP95;
  } else if (stat == "p99") {
    rule.stat = SloStat::kP99;
  } else if (stat == "mean") {
    rule.stat = SloStat::kMean;
  } else if (stat == "min") {
    rule.stat = SloStat::kMin;
  } else if (stat == "max") {
    rule.stat = SloStat::kMax;
  } else if (stat == "count") {
    rule.stat = SloStat::kCount;
  } else if (stat == "skew") {
    rule.stat = SloStat::kSkew;
  } else {
    return fail("unknown stat \"" + stat + "\"");
  }
  if (cmp == "<") {
    rule.cmp = SloCmp::kLt;
  } else if (cmp == ">") {
    rule.cmp = SloCmp::kGt;
  } else {
    return fail("comparison must be < or >");
  }

  char* end = nullptr;
  rule.bound = std::strtod(bound.c_str(), &end);
  const std::string unit(end);
  if (end == bound.c_str()) return fail("bound is not a number");
  // strtod accepts "nan", "inf" and overflowing literals ("1e999"): a NaN
  // bound breaches every window, an infinite one never fires.
  if (!std::isfinite(rule.bound)) return fail("bound is not finite");
  if (unit == "ns") {
    rule.bound *= 1e-9;
  } else if (unit == "us") {
    rule.bound *= 1e-6;
  } else if (unit == "ms") {
    rule.bound *= 1e-3;
  } else if (!unit.empty() && unit != "s" && unit != "x") {
    return fail("unknown unit \"" + unit + "\"");
  }
  *out = std::move(rule);
  return true;
}

SloWatchdog::SloWatchdog(std::vector<SloRule> rules) {
  rules_.reserve(rules.size());
  for (SloRule& r : rules) rules_.push_back(RuleState{std::move(r), -1, 0});
}

std::vector<SloRule> SloWatchdog::rules() const {
  std::vector<SloRule> copy;
  copy.reserve(rules_.size());
  for (const RuleState& s : rules_) copy.push_back(s.rule);
  return copy;
}

int SloWatchdog::Evaluate(double now_s) {
  int fired = 0;
  auto& metrics = Metrics::Global();
  for (RuleState& state : rules_) {
    TimeSeries* series = Telemetry::Global().Find(state.rule.series);
    if (series == nullptr) continue;
    for (const WindowStats& window : series->ClosedWindows(now_s)) {
      if (window.window <= state.last_window) continue;
      state.last_window = window.window;
      if (window.count < state.rule.min_count) continue;
      const double value = SloStatOf(window, state.rule.stat);
      const bool healthy = state.rule.cmp == SloCmp::kLt
                               ? value < state.rule.bound
                               : value > state.rule.bound;
      if (healthy) {
        state.streak = 0;
        continue;
      }
      ++state.streak;
      if (state.streak < state.rule.sustain_windows) continue;
      ++fired;
      ++violations_total_;
      metrics.counter("slo.violations").Increment();
      metrics.counter("slo.violation." + state.rule.series).Increment();
      metrics.gauge("slo.last_value." + state.rule.series).Set(value);
      // Real-domain instant event in the "slo" category (string args must
      // be literals, so the series is identified by the stat + the flight /
      // metrics entries alongside).
      if (TracingEnabled()) {
        TraceEvent e;
        e.ts_us = Tracer::Global().RealNowUs();
        e.name = "slo.violation";
        e.cat = "slo";
        e.num_args = 3;
        e.args[0] = {"window", static_cast<double>(window.window), nullptr};
        e.args[1] = {"value", value, nullptr};
        e.args[2] = {"bound", state.rule.bound, nullptr};
        Tracer::Global().Emit(e);
      }
      Flight().Record("slo.violation", ToString(state.rule.stat), window.t1_s,
                      {{"window", static_cast<double>(window.window), nullptr},
                       {"value", value, nullptr},
                       {"bound", state.rule.bound, nullptr},
                       {"streak", static_cast<double>(state.streak), nullptr}});
      if (callback_) {
        SloViolation v;
        v.rule = &state.rule;
        v.window = window;
        v.value = value;
        v.streak = state.streak;
        callback_(v);
      }
    }
  }
  return fired;
}

}  // namespace apt::obs
