#include "feature/feature_store.h"

#include <algorithm>

#include "core/error.h"
#include "feature/procedural_rows.h"
#include "obs/metrics.h"
#include "runtime/parallel_for.h"

namespace apt {

namespace {

/// Per-tier served-row/byte counters plus the derived cache hit rate.
/// Registry handles are stable for the process lifetime, so resolve once.
struct GatherMetrics {
  obs::Counter& gathers;
  std::array<obs::Counter*, kNumFeatureTiers> rows;
  std::array<obs::Counter*, kNumFeatureTiers> bytes;
  std::array<obs::Counter*, kNumFeatureTiers> wire_bytes;
  obs::Gauge& hit_rate;
};

GatherMetrics& FeatureMetrics() {
  auto& m = obs::Metrics::Global();
  static GatherMetrics g{
      m.counter("feature.gathers"),
      {&m.counter("feature.rows.gpu_cache"), &m.counter("feature.rows.peer_gpu"),
       &m.counter("feature.rows.local_cpu"), &m.counter("feature.rows.remote_cpu")},
      {&m.counter("feature.bytes.gpu_cache"), &m.counter("feature.bytes.peer_gpu"),
       &m.counter("feature.bytes.local_cpu"), &m.counter("feature.bytes.remote_cpu")},
      {&m.counter("feature.wire_bytes.gpu_cache"),
       &m.counter("feature.wire_bytes.peer_gpu"),
       &m.counter("feature.wire_bytes.local_cpu"),
       &m.counter("feature.wire_bytes.remote_cpu")},
      m.gauge("feature.cache.hit_rate"),
  };
  return g;
}

// The row generator: procedural::RowScalar, or RowV4 on hosts with AVX-512
// (ifunc-dispatched, see core/isa.h).
#define APT_PROCEDURAL_ROW(ATTRS, KERNEL)                                               \
  ATTRS void ProceduralRow(std::uint64_t seed, NodeId v, std::int64_t col_lo,          \
                           std::int64_t col_hi, float* out) {                          \
    procedural::KERNEL(seed, v, col_lo, col_hi, out);                                  \
  }

#if APT_ISA_DISPATCH
APT_PROCEDURAL_ROW(__attribute__((target("default"))), RowScalar)
APT_PROCEDURAL_ROW(__attribute__((target("arch=x86-64-v4"))), RowV4)
#else
APT_PROCEDURAL_ROW(, RowScalar)
#endif

#undef APT_PROCEDURAL_ROW

}  // namespace

const char* ToString(FeatureTier t) {
  switch (t) {
    case FeatureTier::kGpuCache:
      return "gpu_cache";
    case FeatureTier::kPeerGpu:
      return "peer_gpu";
    case FeatureTier::kLocalCpu:
      return "local_cpu";
    case FeatureTier::kRemoteCpu:
      return "remote_cpu";
  }
  return "?";
}

FeatureStore::FeatureStore(const Tensor& features, std::vector<MachineId> node_machine,
                           SimContext& ctx)
    : features_(&features), node_machine_(std::move(node_machine)), ctx_(&ctx) {
  APT_CHECK_EQ(static_cast<std::int64_t>(node_machine_.size()), features.rows());
  InitCacheMasks();
}

FeatureStore::FeatureStore(NodeId num_nodes, std::int64_t feature_dim,
                           std::uint64_t seed, std::vector<MachineId> node_machine,
                           SimContext& ctx)
    : features_(nullptr),
      node_machine_(std::move(node_machine)),
      ctx_(&ctx),
      procedural_(true),
      procedural_nodes_(num_nodes),
      procedural_dim_(feature_dim),
      procedural_seed_(seed) {
  APT_CHECK_GT(num_nodes, 0);
  APT_CHECK_GT(feature_dim, 0);
  APT_CHECK_EQ(static_cast<NodeId>(node_machine_.size()), num_nodes);
  InitCacheMasks();
}

void FeatureStore::SetStorageCodec(Codec codec, bool materialize) {
  storage_codec_ = codec;
  rounded_ = Tensor();
  if (procedural_) return;  // rounding happens per generated row in Gather
  if (CodecIsLossy(codec) && materialize) {
    // Round once, over full rows, in the canonical storage order. Gathers
    // copy from this tensor, so a row reads back bit-identically no matter
    // which tier serves it or how requests are batched.
    rounded_ = Tensor(features_->rows(), features_->cols());
    std::copy_n(features_->data(), features_->numel(), rounded_.data());
    CodecRoundRows(codec, rounded_);
  }
}

void FeatureStore::InitCacheMasks() {
  const ClusterSpec& cluster = ctx_->cluster();
  for (MachineId m = 0; m < cluster.num_machines(); ++m) {
    APT_CHECK_LE(cluster.machine(m).num_gpus, 64) << "cache masks hold 64 GPUs per machine";
  }
  cache_masks_.resize(static_cast<std::size_t>(cluster.num_machines()));
  IndexResidences(
      std::vector<std::vector<NodeId>>(static_cast<std::size_t>(cluster.num_devices())));
}

void FeatureStore::IndexResidences(const std::vector<std::vector<NodeId>>& cache_nodes) {
  shares_residence_.clear();
  for (std::size_t d = 0; d < cache_nodes.size(); ++d) {
    shares_residence_.push_back(ctx_->cluster().LocalIndex(static_cast<DeviceId>(d)) > 0 &&
                                cache_nodes[d] == cache_nodes[d - 1]);
  }
}

FeatureStore::CacheMaskTable::CacheMaskTable(std::size_t max_entries) {
  if (max_entries == 0) return;
  std::size_t size = 2;
  shift_ = 63;
  while (size < 2 * max_entries) {
    size *= 2;
    --shift_;
  }
  slots_.resize(size);
}

void FeatureStore::CacheMaskTable::Set(NodeId v, std::int32_t local) {
  for (std::size_t i = Home(v);; i = (i + 1) & (slots_.size() - 1)) {
    Slot& s = slots_[i];
    if (s.node == kEmpty) s.node = v;
    if (s.node == v) {
      s.mask |= std::uint64_t{1} << local;
      return;
    }
  }
}

void FeatureStore::ConfigureCaches(const std::vector<std::vector<NodeId>>& cache_nodes,
                                   std::int64_t bytes_per_cached_row) {
  const ClusterSpec& cluster = ctx_->cluster();
  APT_CHECK_EQ(static_cast<std::int32_t>(cache_nodes.size()), cluster.num_devices());
  // Duplicates over-count a machine's entries, which only lowers the load
  // factor: the bound stays O(cached rows).
  std::vector<std::size_t> entries(cache_masks_.size(), 0);
  for (std::size_t d = 0; d < cache_nodes.size(); ++d) {
    entries[static_cast<std::size_t>(cluster.MachineOf(static_cast<DeviceId>(d)))] +=
        cache_nodes[d].size();
  }
  for (std::size_t m = 0; m < cache_masks_.size(); ++m) {
    cache_masks_[m] = CacheMaskTable(entries[m]);
  }
  for (std::size_t d = 0; d < cache_nodes.size(); ++d) {
    const auto dev = static_cast<DeviceId>(d);
    CacheMaskTable& table = cache_masks_[static_cast<std::size_t>(cluster.MachineOf(dev))];
    const std::int32_t local = cluster.LocalIndex(dev);
    for (NodeId v : cache_nodes[d]) {
      APT_CHECK(v >= 0 && v < num_nodes()) << "cache node " << v;
      table.Set(v, local);
    }
    // Footprint is the CALLER's row count, duplicates included.
    ctx_->AllocPersistent(dev, static_cast<std::int64_t>(cache_nodes[d].size()) *
                                   bytes_per_cached_row);
  }
  IndexResidences(cache_nodes);
}

FeatureStore::Residence FeatureStore::ResidenceOf(DeviceId dev) const {
  const ClusterSpec& cluster = ctx_->cluster();
  const MachineId m = cluster.MachineOf(dev);
  const MachineSpec& machine = cluster.machine(m);
  const std::uint64_t own = std::uint64_t{1} << cluster.LocalIndex(dev);
  // Peer-GPU reads require fast interconnect (paper feature-map rule 1).
  const std::uint64_t all =
      machine.num_gpus >= 64 ? ~std::uint64_t{0}
                             : (std::uint64_t{1} << machine.num_gpus) - 1;
  return {&cache_masks_[static_cast<std::size_t>(m)], own,
          machine.has_nvlink ? all & ~own : 0, m};
}

LoadVolume FeatureStore::SliceVolume(const std::array<std::int64_t, kNumFeatureTiers>& rows,
                                     std::int64_t width) const {
  LoadVolume vol;
  vol.rows = rows;
  for (std::size_t t = 0; t < rows.size(); ++t) {
    vol.bytes[t] = rows[t] * width * static_cast<std::int64_t>(sizeof(float));
    vol.wire_bytes[t] = CodecWireBytes(storage_codec_, rows[t], width);
  }
  return vol;
}

LoadVolume FeatureStore::CountGather(DeviceId dev, std::span<const NodeId> nodes,
                                     std::int64_t col_lo, std::int64_t col_hi) const {
  APT_CHECK(col_lo >= 0 && col_lo <= col_hi && col_hi <= feature_dim());
  std::array<std::int64_t, kNumFeatureTiers> rows{};
  const Residence residence = ResidenceOf(dev);
  for (NodeId v : nodes) ++rows[static_cast<std::size_t>(Classify(residence, v))];
  return SliceVolume(rows, col_hi - col_lo);
}

std::vector<LoadVolume> FeatureStore::CountSlices(std::span<const NodeId> nodes,
                                                  std::span<const std::int64_t> bounds) const {
  APT_CHECK_EQ(bounds.size(), shares_residence_.size() + 1);
  std::vector<LoadVolume> vols;
  for (std::size_t g = 0; g < shares_residence_.size(); ++g) {
    const std::int64_t lo = bounds[g], hi = bounds[g + 1];
    APT_CHECK(lo >= 0 && lo <= hi && hi <= feature_dim());
    vols.push_back(shares_residence_[g]
                       ? SliceVolume(vols.back().rows, hi - lo)
                       : CountGather(static_cast<DeviceId>(g), nodes, lo, hi));
  }
  return vols;
}

double FeatureStore::LoadSeconds(DeviceId dev, const LoadVolume& volume) const {
  const ClusterSpec& cluster = ctx_->cluster();
  const MachineId m = cluster.MachineOf(dev);
  const MachineSpec& machine = cluster.machine(m);
  double t = 0.0;
  // Rows move in their at-rest (possibly compressed) form: transfers charge
  // wire bytes. Under the identity codec wire == logical bytes and the
  // decode term is zero, so this is bit-identical to the uncompressed model.
  auto bytes_of = [&](FeatureTier tier) { return volume.WireBytes(tier); };
  if (bytes_of(FeatureTier::kGpuCache) > 0) {
    t += machine.gpu.kernel_launch_s +
         static_cast<double>(bytes_of(FeatureTier::kGpuCache)) /
             machine.gpu.mem_bandwidth_bytes_per_s;
  }
  // Each tier's base link is degraded by any link fault active at dev's
  // current clock (GPU-cache reads never leave the device, so they are
  // immune to link faults).
  const double now = ctx_->Now(dev);
  if (bytes_of(FeatureTier::kPeerGpu) > 0) {
    const LinkSpec link = ctx_->DegradedLink(
        machine.has_nvlink ? machine.nvlink : machine.pcie, TrafficClass::kPeerGpu,
        now);
    t += link.TransferSeconds(bytes_of(FeatureTier::kPeerGpu));
  }
  if (bytes_of(FeatureTier::kLocalCpu) > 0) {
    t += ctx_->DegradedLink(machine.pcie, TrafficClass::kLocalCpuGpu, now)
             .TransferSeconds(bytes_of(FeatureTier::kLocalCpu));
  }
  if (bytes_of(FeatureTier::kRemoteCpu) > 0) {
    t += ctx_->DegradedLink(cluster.network, TrafficClass::kCrossMachine, now)
             .TransferSeconds(bytes_of(FeatureTier::kRemoteCpu));
  }
  // Dequantize-on-device: one streaming pass over the logical volume at the
  // consumer GPU's memory bandwidth.
  t += CodecXcodeSeconds(storage_codec_, volume.TotalBytes(),
                         machine.gpu.mem_bandwidth_bytes_per_s);
  return t;
}

LoadVolume FeatureStore::Gather(DeviceId dev, std::span<const NodeId> nodes,
                                std::int64_t col_lo, std::int64_t col_hi, Tensor& out) {
  const LoadVolume vol = CountGather(dev, nodes, col_lo, col_hi);
  Read(nodes, col_lo, col_hi, out);
  ChargeLoad(dev, vol);
  return vol;
}

void FeatureStore::Read(std::span<const NodeId> nodes, std::int64_t col_lo,
                        std::int64_t col_hi, Tensor& out) const {
  APT_CHECK(col_lo >= 0 && col_lo <= col_hi && col_hi <= feature_dim());
  APT_CHECK_EQ(out.rows(), static_cast<std::int64_t>(nodes.size()));
  const std::int64_t width = col_hi - col_lo;
  APT_CHECK_EQ(out.cols(), width);
  if (procedural_) {
    // Generate each requested row on the fly. Under a lossless codec the
    // requested columns go straight into `out`. A lossy codec rounds the
    // FULL generated row before slicing: bf16/int8 round per element / per
    // full row, so the slice matches what a materialized store would have
    // rounded at rest — slicing first would change int8's per-row maxabs
    // scale.
    const std::int64_t dim = procedural_dim_;
    const bool lossy = CodecIsLossy(storage_codec_);
    ParallelForChunks(0, static_cast<std::int64_t>(nodes.size()),
                      [&](std::int64_t lo, std::int64_t hi) {
                        Tensor row_buf = lossy ? Tensor::Uninit(1, dim) : Tensor();
                        for (std::int64_t i = lo; i < hi; ++i) {
                          const NodeId v = nodes[static_cast<std::size_t>(i)];
                          if (!lossy) {
                            ProceduralRow(procedural_seed_, v, col_lo, col_hi, out.row(i));
                            continue;
                          }
                          ProceduralRow(procedural_seed_, v, 0, dim, row_buf.data());
                          CodecRoundRows(storage_codec_, row_buf);
                          std::copy_n(row_buf.data() + col_lo, width, out.row(i));
                        }
                      });
  } else {
    APT_CHECK(!CodecIsLossy(storage_codec_) || rounded_.numel() > 0)
        << "lossy storage codec was set without materializing the rounded copy";
    const Tensor& src_tensor = served();
    // The row copies are independent; this is the memory-bound half of T_load.
    ParallelFor(0, static_cast<std::int64_t>(nodes.size()), [&](std::int64_t i) {
      const float* src = src_tensor.row(nodes[static_cast<std::size_t>(i)]) + col_lo;
      std::copy_n(src, width, out.row(i));
    }, std::max<std::int64_t>(1, 16384 / std::max<std::int64_t>(1, width)));
  }
}

void FeatureStore::ChargeLoad(DeviceId dev, const LoadVolume& vol) {
  GatherMetrics& metrics = FeatureMetrics();
  metrics.gathers.Increment();
  std::int64_t total_rows = 0;
  for (int tier = 0; tier < kNumFeatureTiers; ++tier) {
    const auto t = static_cast<std::size_t>(tier);
    metrics.rows[t]->Add(vol.rows[t]);
    metrics.bytes[t]->Add(vol.bytes[t]);
    metrics.wire_bytes[t]->Add(vol.wire_bytes[t]);
    total_rows += vol.rows[t];
  }
  // Cumulative hit rate: rows served from the device's own GPU cache over all
  // rows ever gathered (the quantity the cache policy optimizes).
  const auto hit_tier = static_cast<std::size_t>(FeatureTier::kGpuCache);
  const std::int64_t hits = metrics.rows[hit_tier]->Get();
  std::int64_t all_rows = 0;
  for (const auto* c : metrics.rows) all_rows += c->Get();
  if (all_rows > 0) {
    metrics.hit_rate.Set(static_cast<double>(hits) / static_cast<double>(all_rows));
  }
  ctx_->AdvanceLabeled(
      dev, LoadSeconds(dev, vol), Phase::kLoad, "gather",
      {{"rows", static_cast<double>(total_rows), nullptr},
       {"bytes", static_cast<double>(vol.TotalBytes()), nullptr},
       {"wire_bytes", static_cast<double>(vol.TotalWireBytes()), nullptr},
       {"cache_hit_rows", static_cast<double>(vol.rows[hit_tier]), nullptr}});
  ctx_->CountTraffic(TrafficClass::kLocalCpuGpu,
                     vol.bytes[static_cast<std::size_t>(FeatureTier::kLocalCpu)],
                     vol.WireBytes(FeatureTier::kLocalCpu));
  ctx_->CountTraffic(TrafficClass::kPeerGpu,
                     vol.bytes[static_cast<std::size_t>(FeatureTier::kPeerGpu)],
                     vol.WireBytes(FeatureTier::kPeerGpu));
  ctx_->CountTraffic(TrafficClass::kCrossMachine,
                     vol.bytes[static_cast<std::size_t>(FeatureTier::kRemoteCpu)],
                     vol.WireBytes(FeatureTier::kRemoteCpu));
}

std::vector<MachineId> FeaturePlacementFromPartition(const std::vector<PartId>& part,
                                                     const ClusterSpec& cluster) {
  // num_devices() and an unindexed MachineOf each scan the machines: once per device.
  const std::int32_t c = cluster.num_devices();
  std::vector<MachineId> machine_of;
  for (DeviceId dev = 0; dev < c; ++dev) machine_of.push_back(cluster.MachineOf(dev));
  std::vector<MachineId> placement(part.size());
  for (std::size_t v = 0; v < part.size(); ++v) {
    APT_CHECK_GE(part[v], 0);
    placement[v] = machine_of[static_cast<std::size_t>(part[v] % c)];
  }
  return placement;
}

std::unique_ptr<FeatureStore> MakeFeatureStore(const Dataset& dataset,
                                               std::vector<MachineId> node_machine,
                                               SimContext& ctx) {
  if (dataset.features.numel() == 0 && dataset.procedural_feature_dim > 0) {
    return std::make_unique<FeatureStore>(dataset.graph.num_nodes(),
                                          dataset.procedural_feature_dim,
                                          dataset.procedural_feature_seed,
                                          std::move(node_machine), ctx);
  }
  return std::make_unique<FeatureStore>(dataset.features, std::move(node_machine), ctx);
}

}  // namespace apt
