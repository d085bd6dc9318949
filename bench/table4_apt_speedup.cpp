// Reproduces paper Table 4: the maximum speedup of APT's adaptive selection
// over ALWAYS using a single fixed strategy, maximized over a grid of
// configurations per dataset (hidden dims, fanouts, cache sizes — the
// Figure 8 sweep — plus the multi-machine hidden sweep of Figure 9).
//
// speedup(strategy) = max over configs of
//     epoch_time(strategy, config) / epoch_time(APT-selected, config).
//
// Expected shape (paper): NFP has the largest penalty (4-8x), SNP 2-3x,
// GDP 1.2-2.6x, DNP smallest (1.3-1.6x) — i.e. no single strategy is safe,
// and DNP is the best single choice but still loses to adaptive selection.
#include <algorithm>
#include <array>
#include <cstdio>
#include <optional>
#include <vector>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace apt;
  using namespace apt::bench;
  SetLogLevel(LogLevel::kWarn);
  BenchInit("table4_apt_speedup", &argc, argv);

  std::printf("=== Table 4: max speedup of APT vs always-single-strategy ===\n");
  std::printf("(grid: d' in {8,32,128,512} x {1 machine, 4 machines}, plus fanout\n");
  std::printf(" [10,5] and cache-off single-machine variants; 1 epoch each)\n\n");
  std::printf("%-12s | %6s %6s %6s %6s\n", "dataset", "GDP", "NFP", "SNP", "DNP");
  std::printf("------------------------------------------\n");

  for (const Dataset* ds : {&PsLike(), &FsLike(), &ImLike()}) {
    // Seeded by each strategy's first non-OOM cell, not by 1.0, so a pick
    // that is slower than a fixed strategy in every cell reads below 1.
    std::array<std::optional<double>, kNumStrategies> max_speedup;
    std::vector<CaseConfig> grid;
    for (std::int64_t hidden : {8, 32, 128, 512}) {
      for (const bool multi : {false, true}) {
        CaseConfig cfg;
        cfg.label = ds->name + " d'=" + std::to_string(hidden) + (multi ? " 4x4" : " 1x8");
        cfg.dataset = ds;
        cfg.cluster = multi ? MultiMachineCluster(4, 4) : SingleMachineCluster(8);
        cfg.model = SageConfig(*ds, hidden);
        cfg.opts = PaperDefaults();
        cfg.opts.cache_bytes_per_device = DefaultCacheBytes(*ds);
        grid.push_back(cfg);
      }
    }
    {
      CaseConfig light;  // light fanout, 2 layers
      light.label = ds->name + " [10,5]";
      light.dataset = ds;
      light.cluster = SingleMachineCluster(8);
      light.model = SageConfig(*ds, 32);
      light.model.num_layers = 2;
      light.opts = PaperDefaults();
      light.opts.fanouts = {10, 5};
      light.opts.cache_bytes_per_device = DefaultCacheBytes(*ds);
      grid.push_back(light);

      CaseConfig nocache;
      nocache.label = ds->name + " no cache";
      nocache.dataset = ds;
      nocache.cluster = SingleMachineCluster(8);
      nocache.model = SageConfig(*ds, 32);
      nocache.opts = PaperDefaults();
      nocache.opts.cache_bytes_per_device = 0;
      grid.push_back(nocache);
    }
    for (CaseConfig& cfg : grid) {
      const CaseResult r = RunCase(cfg);
      const double apt_time = r.SelectedSeconds();
      for (Strategy s : kAllStrategies) {
        if (r.of(s).oom) continue;  // an OOM run is an infinite slowdown
        std::optional<double>& best = max_speedup[static_cast<std::size_t>(s)];
        const double speedup = r.of(s).epoch.sim_seconds / apt_time;
        best = best.has_value() ? std::max(*best, speedup) : speedup;
      }
    }
    std::printf("%-12s |", ds->name.c_str());
    for (Strategy s : kAllStrategies) {
      const std::optional<double>& best = max_speedup[static_cast<std::size_t>(s)];
      if (best.has_value()) {
        std::printf(" %6.2f", *best);
      } else {
        std::printf(" %6s", "OOM");  // every cell of this strategy ran out of memory
      }
    }
    std::printf("\n");
  }
  std::printf(
      "\npaper Table 4 reference: PS 1.18/7.57/3.33/1.59  FS 2.13/4.25/2.35/1.36  "
      "IM 2.60/5.88/2.09/1.55\n");
  return BenchFinish();
}
