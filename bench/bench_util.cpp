#include "bench_util.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/logging.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"

// Build metadata injected by bench/CMakeLists.txt; the fallbacks keep
// bench_util compilable standalone.
#ifndef APT_GIT_SHA
#define APT_GIT_SHA "unknown"
#endif
#ifndef APT_BUILD_TYPE
#define APT_BUILD_TYPE "unknown"
#endif
#ifndef APT_SANITIZE_FLAG
#define APT_SANITIZE_FLAG ""
#endif

namespace apt::bench {

namespace {

constexpr double kBenchScale = 0.25;

Dataset MakeCached(DatasetParams params) { return MakeDataset(params); }

/// State of the current bench run (one per process).
struct BenchRun {
  bool initialized = false;
  std::string name = "bench";
  std::string trace_out;
  std::string metrics_out;
  std::string records_out;
  std::string telemetry_out;
  std::string prom_out;
  std::int64_t sample_period = 1;
  std::vector<std::string> records;
};

BenchRun& Run() {
  static BenchRun run;
  return run;
}

/// If `arg` is `<prefix><value>`, stores value and returns true.
bool TakeFlag(const char* arg, const char* prefix, std::string* out) {
  const std::size_t n = std::strlen(prefix);
  if (std::strncmp(arg, prefix, n) != 0) return false;
  *out = arg + n;
  return true;
}

void WriteEpochJson(obs::JsonWriter& w, const EpochStats& e) {
  w.KV("sim_seconds", e.sim_seconds);
  w.KV("wall_seconds", e.wall_seconds);
  w.KV("sample_seconds", e.sample_seconds);
  w.KV("load_seconds", e.load_seconds);
  w.KV("train_seconds", e.train_seconds);
  w.KV("comm_sample_seconds", e.comm_sample_seconds);
  w.KV("comm_train_seconds", e.comm_train_seconds);
  w.KV("loss", e.loss);
  // Sampled execution: fast-forwarded steps mark loss (and accuracy) as
  // EXTRAPOLATED from the probe steps; the timing metrics above stay
  // exact-model. Both counts are deterministic, so the gate holds them tight.
  if (e.steps_fast_forwarded > 0) {
    w.KV("steps_executed", e.steps_executed);
    w.KV("steps_fast_forwarded", e.steps_fast_forwarded);
    w.KV("extrapolated", true);
  }
}

/// One record per case: the full per-strategy breakdown plus the planner's
/// estimates, keyed the way downstream tooling plots the figures.
void RecordCase(const CaseResult& result) {
  if (!Run().initialized) return;
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.BeginObject();
  w.KV("case", result.label);
  w.KV("selected", ToString(result.selected));
  w.KV("dryrun_wall_seconds", result.dryrun_wall_seconds);
  w.Key("strategies");
  w.BeginObject();
  for (Strategy s : kAllStrategies) {
    const StrategyResult& r = result.of(s);
    w.Key(ToString(s));
    w.BeginObject();
    WriteEpochJson(w, r.epoch);
    w.KV("oom", r.oom);
    w.KV("estimate_comparable_seconds", r.estimate.Comparable());
    // sim_* byte counts are deterministic and gate at a near-zero threshold.
    w.KV("sim_traffic_bytes", r.traffic_bytes);
    w.KV("sim_compressed_bytes", r.traffic_wire_bytes);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  AddRecord(os.str());
}

}  // namespace

void BenchInit(const std::string& name, int* argc, char** argv) {
  BenchRun& run = Run();
  run.initialized = true;
  run.name = name;
  run.records_out = "BENCH_" + name + ".json";
  if (argc != nullptr && argv != nullptr) {
    int w = 1;
    for (int i = 1; i < *argc; ++i) {
      if (TakeFlag(argv[i], "--trace-out=", &run.trace_out) ||
          TakeFlag(argv[i], "--metrics-out=", &run.metrics_out) ||
          TakeFlag(argv[i], "--records-out=", &run.records_out) ||
          TakeFlag(argv[i], "--telemetry-out=", &run.telemetry_out) ||
          TakeFlag(argv[i], "--prom-out=", &run.prom_out)) {
        continue;
      }
      std::string period;
      if (TakeFlag(argv[i], "--sample-period=", &period)) {
        run.sample_period = PositiveIntFlag("--sample-period", period.c_str());
        continue;
      }
      argv[w++] = argv[i];
    }
    *argc = w;
  }
  if (!run.trace_out.empty()) obs::SetTracingEnabled(true);
}

void AddRecord(std::string json_object) {
  Run().records.push_back(std::move(json_object));
}

int BenchFinish() {
  BenchRun& run = Run();
  int rc = 0;
  {
    std::ofstream os(run.records_out);
    obs::JsonWriter w(os);
    w.BeginObject();
    w.KV("schema_version", obs::kObsSchemaVersion);
    w.Key("meta");
    w.BeginObject();
    w.KV("kind", "bench_records");
    w.KV("bench", run.name);
    w.KV("git_sha", APT_GIT_SHA);
    w.KV("build_type", APT_BUILD_TYPE);
    w.KV("sanitizer", APT_SANITIZE_FLAG);
    w.KV("compiler", __VERSION__);
    w.KV("threads",
         static_cast<std::int64_t>(ThreadPool::Global().ParallelismDegree()));
    w.KV("sample_period", run.sample_period);
    w.EndObject();
    w.Key("records");
    w.BeginArray();
    for (const std::string& r : run.records) w.RawValue(r);
    w.EndArray();
    w.EndObject();
    os << "\n";
    if (!os) {
      std::fprintf(stderr, "failed to write %s\n", run.records_out.c_str());
      rc = 1;
    } else {
      std::printf("wrote %s (%zu records)\n", run.records_out.c_str(),
                  run.records.size());
    }
  }
  if (!run.metrics_out.empty()) {
    if (obs::Metrics::Global().WriteJsonFile(run.metrics_out)) {
      std::printf("wrote %s\n", run.metrics_out.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", run.metrics_out.c_str());
      rc = 1;
    }
  }
  if (!run.trace_out.empty()) {
    if (obs::ExportChromeTrace(run.trace_out)) {
      std::printf("wrote %s (open in https://ui.perfetto.dev)\n",
                  run.trace_out.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", run.trace_out.c_str());
      rc = 1;
    }
  }
  if (!run.telemetry_out.empty()) {
    if (obs::Telemetry::Global().WriteTimelineFile(run.telemetry_out)) {
      std::printf("wrote %s\n", run.telemetry_out.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", run.telemetry_out.c_str());
      rc = 1;
    }
  }
  if (!run.prom_out.empty()) {
    std::ofstream os(run.prom_out);
    if (os) obs::WritePrometheusText(os);
    if (os) {
      std::printf("wrote %s\n", run.prom_out.c_str());
    } else {
      std::fprintf(stderr, "failed to write %s\n", run.prom_out.c_str());
      rc = 1;
    }
  }
  run.records.clear();
  return rc;
}

const Dataset& PsLike() {
  static const Dataset ds = MakeCached(PsLikeParams(kBenchScale));
  return ds;
}

const Dataset& FsLike() {
  static const Dataset ds = MakeCached(FsLikeParams(kBenchScale));
  return ds;
}

const Dataset& ImLike() {
  static const Dataset ds = MakeCached(ImLikeParams(kBenchScale));
  return ds;
}

std::int64_t PositiveIntFlag(const char* flag, const char* value) {
  std::int64_t v = 0;
  const char* end = value + std::strlen(value);
  const auto [ptr, ec] = std::from_chars(value, end, v);
  if (ec != std::errc() || ptr != end || v < 1) {
    std::fprintf(stderr, "%s=%s: expected a positive integer\n", flag, value);
    std::exit(2);
  }
  return v;
}

EngineOptions PaperDefaults() {
  EngineOptions opts;
  opts.fanouts = {10, 10, 10};
  opts.batch_size_per_device = 128;  // paper: 1024/GPU at 100x our graph size
  // --sample-period=N puts every figure bench into sampled execution (timing
  // metrics stay exact-model; loss is extrapolated and the records flag it).
  opts.scale_sample_period = Run().sample_period;
  return opts;
}

ModelConfig SageConfig(const Dataset& ds, std::int64_t hidden) {
  ModelConfig m;
  m.kind = ModelKind::kSage;
  m.num_layers = 3;
  m.hidden_dim = hidden;
  m.input_dim = ds.feature_dim();
  m.num_classes = ds.num_classes;
  return m;
}

ModelConfig GatConfig(const Dataset& ds, std::int64_t hidden) {
  ModelConfig m;
  m.kind = ModelKind::kGat;
  m.num_layers = 3;
  m.hidden_dim = hidden;
  m.gat_heads = 4;
  m.input_dim = ds.feature_dim();
  m.num_classes = ds.num_classes;
  return m;
}

std::int64_t DefaultCacheBytes(const Dataset& ds) {
  // The paper uses a 4 GB cache against 53-128 GB feature stores (~4-8%).
  return ds.FeatureBytes() / 16;
}

double CaseResult::BestSeconds() const {
  double best = 0.0;
  bool found = false;
  for (const StrategyResult& r : per_strategy) {
    if (r.oom) continue;
    if (!found || r.epoch.sim_seconds < best) {
      best = r.epoch.sim_seconds;
      found = true;
    }
  }
  return best;
}

CaseResult RunCase(const CaseConfig& config) {
  APT_CHECK(config.dataset != nullptr);
  const Dataset& ds = *config.dataset;
  CaseResult result;
  result.label = config.label;

  MultilevelPartitioner default_part;
  Partitioner* partitioner =
      config.partitioner != nullptr ? config.partitioner : &default_part;
  const std::vector<PartId> partition =
      partitioner->Partition(ds.graph, config.cluster.num_devices());

  ModelConfig model = config.model;
  if (model.input_dim == 0) model.input_dim = ds.feature_dim();
  if (model.num_classes == 0) model.num_classes = ds.num_classes;

  const PlanReport plan = MakePlan(ds, config.cluster, partition, config.opts, model);
  result.selected = plan.selected;
  result.dryrun_wall_seconds = plan.dryrun.wall_seconds;

  result.per_strategy.resize(kNumStrategies);
  for (Strategy s : kAllStrategies) {
    StrategyResult& sr = result.per_strategy[static_cast<std::size_t>(s)];
    sr.strategy = s;
    sr.estimate = plan.estimates[static_cast<std::size_t>(s)];
    TrainerSetup setup = BuildTrainerSetup(config.cluster, model, config.opts,
                                           partition, plan.dryrun, s);
    ParallelTrainer trainer(ds, std::move(setup));
    EpochStats sum{};
    for (int e = 0; e < config.epochs; ++e) {
      const EpochStats st = trainer.TrainEpoch(e);
      sum.loss += st.loss;
      sum.sim_seconds += st.sim_seconds;
      sum.wall_seconds += st.wall_seconds;
      sum.sample_seconds += st.sample_seconds;
      sum.load_seconds += st.load_seconds;
      sum.train_seconds += st.train_seconds;
      sum.comm_sample_seconds += st.comm_sample_seconds;
      sum.comm_train_seconds += st.comm_train_seconds;
      sum.steps_executed += st.steps_executed;
      sum.steps_fast_forwarded += st.steps_fast_forwarded;
    }
    const double inv = 1.0 / config.epochs;
    sr.epoch.loss = sum.loss * inv;
    sr.epoch.sim_seconds = sum.sim_seconds * inv;
    sr.epoch.wall_seconds = sum.wall_seconds * inv;
    sr.epoch.sample_seconds = sum.sample_seconds * inv;
    sr.epoch.load_seconds = sum.load_seconds * inv;
    sr.epoch.train_seconds = sum.train_seconds * inv;
    sr.epoch.comm_sample_seconds = sum.comm_sample_seconds * inv;
    sr.epoch.comm_train_seconds = sum.comm_train_seconds * inv;
    // Counts, not seconds: totals over the measured epochs.
    sr.epoch.steps_executed = sum.steps_executed;
    sr.epoch.steps_fast_forwarded = sum.steps_fast_forwarded;
    sr.oom = trainer.sim().AnyOom();
    for (std::size_t c = 0; c < static_cast<std::size_t>(TrafficClass::kNumClasses);
         ++c) {
      sr.traffic_bytes += trainer.sim().TrafficBytes(static_cast<TrafficClass>(c));
      sr.traffic_wire_bytes +=
          trainer.sim().TrafficWireBytes(static_cast<TrafficClass>(c));
    }
  }
  RecordCase(result);
  return result;
}

void PrintTableHeader(const std::string& sweep_name) {
  std::printf("\n%-24s | %-26s | %-26s | %-26s | %-26s\n", sweep_name.c_str(),
              "GDP  total (smp/ld/trn)", "NFP  total (smp/ld/trn)",
              "SNP  total (smp/ld/trn)", "DNP  total (smp/ld/trn)");
  std::printf("%s\n", std::string(24 + 4 * 29, '-').c_str());
}

void PrintCaseRow(const CaseResult& result) {
  std::printf("%-24s |", result.label.c_str());
  for (Strategy s : kAllStrategies) {
    const StrategyResult& r = result.of(s);
    const char star = result.selected == s ? '*' : ' ';
    if (r.oom) {
      std::printf("%c %7.2fms OOM             |", star,
                  r.epoch.sim_seconds * 1e3);
    } else {
      std::printf("%c %7.2fms (%5.2f/%5.2f/%5.2f)|", star,
                  r.epoch.sim_seconds * 1e3, r.epoch.sample_seconds * 1e3,
                  r.epoch.load_seconds * 1e3, r.epoch.train_seconds * 1e3);
    }
  }
  std::printf("\n");
}

}  // namespace apt::bench
