// Shared google-benchmark wiring for the micro benches: a console reporter
// that also appends one flat JSON record per benchmark run to the bench
// harness, so BENCH_<name>.json carries the same run metadata as the figure
// benches (git SHA, threads, build flags — see bench_util BenchFinish).
//
// Record schema: {"op": ..., "shape": ..., <counters...>, "time_ns": ...}
// where "BM_Matmul/256" splits into op "BM_Matmul" and shape "256".
#pragma once

#include <benchmark/benchmark.h>

#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/json.h"

namespace apt::bench {

class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      const std::string name = run.benchmark_name();
      const std::size_t slash = name.find('/');
      std::ostringstream os;
      obs::JsonWriter w(os);
      w.BeginObject();
      w.KV("op", name.substr(0, slash));
      w.KV("shape",
           slash == std::string::npos ? std::string() : name.substr(slash + 1));
      for (const auto& [key, counter] : run.counters) {
        w.KV(key, counter.value);
      }
      // GetAdjustedRealTime is in the benchmark's Unit(); records are ns.
      w.KV("time_ns", run.GetAdjustedRealTime() * 1e9 /
                          benchmark::GetTimeUnitMultiplier(run.time_unit));
      w.EndObject();
      AddRecord(os.str());
    }
  }
};

/// Drop-in main body: BenchInit (shared --trace-out/--metrics-out flags are
/// stripped before google-benchmark sees argv), run everything through the
/// recording reporter, BenchFinish.
inline int RunGoogleBench(const char* name, int argc, char** argv) {
  BenchInit(name, &argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  RecordingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return BenchFinish();
}

}  // namespace apt::bench
