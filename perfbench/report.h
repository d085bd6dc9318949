// Per-layer figures shared by the workloads' traced runs: getrusage costs per
// step, the library's exact obs::Metrics counters per step, and span times.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common.h"
#include "obs/metrics.h"
#include "spans.h"

namespace perfbench {

using CounterMap = std::map<std::string, std::int64_t>;

inline CounterMap Counters() {
  CounterMap m;
  for (const auto& [name, v] : apt::obs::Metrics::Global().CounterSnapshot()) m[name] = v;
  return m;
}

inline double Delta(const CounterMap& before, const CounterMap& after,
                    const std::string& name) {
  const auto a = after.find(name);
  const auto b = before.find(name);
  return static_cast<double>((a == after.end() ? 0 : a->second) -
                             (b == before.end() ? 0 : b->second));
}

/// runtime.*: host costs of `steps` operations measured by `delta`.
inline void AddRuntime(Result& r, const Usage& delta, double steps) {
  r.Add("runtime.minor_faults_per_step", static_cast<double>(delta.minor_faults) / steps,
        "count");
  r.Add("runtime.sys_s_per_step", delta.sys_s / steps, "s");
  r.Add("runtime.cpu_util",
        (delta.user_s + delta.sys_s) / (delta.wall_s * static_cast<double>(Threads())),
        "fraction");
}

/// Exact per-step counts from the library's metrics registry, and the GPU
/// cache hit rate over every gathered feature row.
inline void AddCounters(Result& r, const CounterMap& before, const CounterMap& after,
                        double steps) {
  r.Add("comm.alltoall.bytes", Delta(before, after, "comm.alltoall.bytes") / steps, "bytes");
  r.Add("comm.allreduce.bytes", Delta(before, after, "comm.allreduce.bytes") / steps,
        "bytes");
  double rows = 0.0;
  for (const char* tier : {"gpu_cache", "peer_gpu", "local_cpu", "remote_cpu"}) {
    const double n = Delta(before, after, std::string("feature.rows.") + tier);
    rows += n;
    r.Add(std::string("feature.rows.") + tier, n / steps, "rows");
  }
  r.Add("feature.rows.total", rows / steps, "rows");
  r.Add("feature.cache.hit_rate",
        rows > 0.0 ? Delta(before, after, "feature.rows.gpu_cache") / rows : 0.0,
        "fraction");
}

/// `<layer>_s`: median seconds per call of each named span.
inline void AddLayerTimes(Result& r, const SpanReport& spans,
                          std::initializer_list<const char*> layers) {
  for (const char* layer : layers) {
    const auto it = spans.layers.find(layer);
    r.Add(std::string(layer) + "_s", it == spans.layers.end() ? 0.0 : Median(it->second.per_call),
          "s");
  }
}

}  // namespace perfbench
