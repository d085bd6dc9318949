// The repo benchmark's binary.
//
//   perfbench --workload <train_fig09|scale_xl1000|serve_poisson>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Runs one workload, checks its outputs, and prints as its last line one
// JSON object {"correct", "attempted", "failed", "metrics"}. Without tracing
// the metrics are the end-to-end ones; the traced run reports the per-layer
// ones instead. Every workload prints every metric of its list: a layer a
// workload does not exercise reads 0. Exit status 1 means a correctness
// check failed, 2 a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "core/logging.h"
#include "spans.h"

namespace {

using perfbench::Args;
using perfbench::Metric;
using perfbench::Result;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"throughput_per_cpu_s", "1/cpu_s"},
    {"peak_rss_mb", "MB"},
    {"success_rate", "fraction"},
    {"sim_result_s", "sim_s"},
};

constexpr MetricSpec kPerLayer[] = {
    {"graph.generate_s", "s"},
    {"partition.partition_s", "s"},
    {"apt.dryrun_s", "s"},
    {"engine.trainer_build_s", "s"},
    {"serve.engine_build_s", "s"},
    {"sampling.sample_s", "s"},
    {"sampling.merge_s", "s"},
    {"engine.executor_step_s", "s"},
    {"tensor.gflops", "GFLOP/s"},
    {"comm.allreduce_s", "s"},
    {"comm.fast_forward_s", "s"},
    {"engine.probe_step_s", "s"},
    {"model.optimizer_s", "s"},
    {"model.forward_s", "s"},
    {"model.train_loss", "nats"},
    {"feature.gather_s", "s"},
    {"feature.cache.hit_rate", "fraction"},
    {"feature.rows.total", "rows"},
    {"feature.rows.gpu_cache", "rows"},
    {"feature.rows.peer_gpu", "rows"},
    {"feature.rows.local_cpu", "rows"},
    {"feature.rows.remote_cpu", "rows"},
    {"serve.plan_batches_s", "s"},
    {"serve.mean_batch_rows", "rows"},
    {"serve.sim_p50_us", "sim_us"},
    {"serve.sim_p99_us", "sim_us"},
    {"comm.alltoall.bytes", "bytes"},
    {"comm.allreduce.bytes", "bytes"},
    {"runtime.minor_faults_per_step", "count"},
    {"runtime.sys_s_per_step", "s"},
    {"runtime.cpu_util", "fraction"},
    {"runtime.wall_throughput_per_s", "1/s"},
    {"runtime.thread_speedup", "ratio"},
    {"unattributed_frac", "fraction"},
    {"trace.throughput_ratio", "ratio"},
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg);
  std::fprintf(stderr,
               "usage: perfbench --workload <train_fig09|scale_xl1000|serve_poisson> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n");
  std::exit(2);
}

Args Parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    const std::size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      Usage(("missing value for " + key).c_str());
    }
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace") {
      a.trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else if (key == "--trace-out") {
      a.trace_out = value;
    } else {
      Usage(("unknown flag " + key).c_str());
    }
    if (end != nullptr && (*end != '\0' || value.empty())) {
      Usage(("bad value for " + key).c_str());
    }
  }
  if (!have_workload) Usage("--workload is required");
  if (!(a.seconds > 0.0)) Usage("--seconds must be positive");
  return a;
}

/// Orders the workload's metrics by the spec list; a listed metric the
/// workload does not report reads 0 (per-layer) or is an error (end-to-end).
std::vector<Metric> Select(Result& r, const MetricSpec* specs, std::size_t n,
                           bool missing_is_zero) {
  std::vector<Metric> out;
  for (std::size_t i = 0; i < n; ++i) {
    const Metric* found = nullptr;
    for (const Metric& m : r.metrics) {
      if (m.name == specs[i].name) found = &m;
    }
    if (found == nullptr && !missing_is_zero) {
      r.Check(false, std::string("metric not measured: ") + specs[i].name);
    }
    double v = found != nullptr ? found->value : 0.0;
    if (found != nullptr && found->unit != specs[i].unit) {
      r.Check(false, std::string("unit mismatch for ") + specs[i].name);
    }
    if (!std::isfinite(v)) {
      r.Check(false, std::string("non-finite value for ") + specs[i].name);
      v = 0.0;
    }
    out.push_back({specs[i].name, v, specs[i].unit});
  }
  for (const Metric& m : r.metrics) {
    bool listed = false;
    for (std::size_t i = 0; i < n; ++i) listed = listed || m.name == specs[i].name;
    if (!listed) r.Check(false, "unlisted metric " + m.name);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  apt::SetLogLevel(apt::LogLevel::kWarn);
  const Args args = Parse(argc, argv);
  std::printf("workload=%s seed=%llu seconds=%g trace=%d threads=%lld\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, static_cast<long long>(perfbench::Threads()));
  std::fflush(stdout);

  Result r;
  if (args.workload == "train_fig09") {
    r = perfbench::RunTrainFig09(args);
  } else if (args.workload == "scale_xl1000") {
    r = perfbench::RunScaleXl1000(args);
  } else if (args.workload == "serve_poisson") {
    r = perfbench::RunServePoisson(args);
  } else {
    Usage(("unknown workload " + args.workload).c_str());
  }
  if (r.attempted < 1) r.Check(false, "no operation attempted");

  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = Select(r, kPerLayer, std::size(kPerLayer), true);
    if (!args.trace_out.empty() && !perfbench::WriteSpans(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
    }
  } else {
    if (!r.correct) r.failed = r.attempted;
    const double attempted = static_cast<double>(std::max<std::int64_t>(1, r.attempted));
    r.Add("success_rate", 1.0 - static_cast<double>(r.failed) / attempted, "fraction");
    metrics = Select(r, kEndToEnd, std::size(kEndToEnd), false);
  }
  // A failed check counts every operation of the run as failed.
  if (!r.correct) r.failed = r.attempted;
  for (const std::string& f : r.failures) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              r.correct ? "true" : "false", static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return r.correct ? 0 : 1;
}
