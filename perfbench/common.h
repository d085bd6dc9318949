// Shared plumbing of the repo benchmark: command-line arguments, host clocks
// and getrusage counters, small statistics, and the result every workload
// returns to main.cpp for printing.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/thread_pool.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (Chrome trace JSON).
  std::string trace_out;
};

/// Host wall clock, seconds since an arbitrary epoch.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Process-wide host cost counters from getrusage(RUSAGE_SELF).
struct Usage {
  double wall_s = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;
  std::int64_t minor_faults = 0;
  double peak_rss_mb = 0.0;

  static Usage Take() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval& t) {
      return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
    };
    Usage u;
    u.wall_s = Now();
    u.user_s = secs(ru.ru_utime);
    u.sys_s = secs(ru.ru_stime);
    u.minor_faults = ru.ru_minflt;
    u.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
    return u;
  }

  /// Counter deltas since `before` (peak RSS stays the current peak).
  Usage Since(const Usage& before) const {
    Usage d = *this;
    d.wall_s -= before.wall_s;
    d.user_s -= before.user_s;
    d.sys_s -= before.sys_s;
    d.minor_faults -= before.minor_faults;
    return d;
  }
};

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Lanes of a top-level parallel region: the pool's workers plus the caller.
inline std::int64_t Threads() { return apt::ThreadPool::Global().ParallelismDegree(); }

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main.cpp.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
  /// One line per failed correctness check (printed, never hidden).
  std::vector<std::string> failures;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a correctness check; a failure invalidates the whole run.
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      failures.push_back(what);
    }
  }
};

Result RunTrainFig09(const Args& args);
Result RunScaleXl1000(const Args& args);
Result RunServePoisson(const Args& args);

}  // namespace perfbench
