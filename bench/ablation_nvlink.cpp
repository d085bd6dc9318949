// Ablation of the feature map's peer-GPU rule (paper §4.2, rule 1): with
// fast inter-GPU links (NVLink), a device may read a feature cached on a
// PEER GPU instead of going to CPU memory. GDP/NFP cache the same global-hot
// set on every device, so peer reads never trigger for them; SNP/DNP keep
// DISJOINT partition caches, so with NVLink the union of all GPU caches
// becomes one large shared cache.
#include <cstdio>
#include <vector>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace apt;
  using namespace apt::bench;
  SetLogLevel(LogLevel::kWarn);
  BenchInit("ablation_nvlink", &argc, argv);

  std::printf("=== Ablation: NVLink peer-GPU feature reads (GraphSAGE, 8 GPUs) ===\n");
  std::printf("%-24s | %18s | %18s\n", "config", "PCIe-only load(ms)",
              "NVLink load(ms)");
  std::printf("%s\n", std::string(68, '-').c_str());
  for (const Dataset* ds : {&PsLike(), &FsLike()}) {
    // One case per link (each plans and trains every strategy); the rows
    // read three strategies' load phase from it.
    std::vector<CaseResult> by_link;
    for (const bool nvlink : {false, true}) {
      CaseConfig cfg;
      cfg.label = ds->name + (nvlink ? " nvlink" : " pcie");
      cfg.dataset = ds;
      cfg.cluster = SingleMachineCluster(8, nvlink);
      cfg.model = SageConfig(*ds, 32);
      cfg.opts = PaperDefaults();
      cfg.opts.cache_bytes_per_device = DefaultCacheBytes(*ds);
      by_link.push_back(RunCase(cfg));
    }
    for (Strategy s : {Strategy::kGDP, Strategy::kSNP, Strategy::kDNP}) {
      std::printf("%-24s | %18.3f | %18.3f\n", (ds->name + " " + ToString(s)).c_str(),
                  by_link[0].of(s).epoch.load_seconds * 1e3,
                  by_link[1].of(s).epoch.load_seconds * 1e3);
    }
  }
  return BenchFinish();
}
