// Unified feature store over the simulated memory hierarchy (paper §4.2).
//
// Node features live in CPU memory, partitioned across machines; each GPU
// caches the rows its strategy expects to touch most. A gather request is
// served tier by tier — own GPU cache, peer GPU (NVLink only), local CPU,
// remote CPU — with real row copies plus simulated transfer time per tier.
// Gather is three public steps: CountGather classifies, Read copies and
// charges nothing, ChargeLoad charges and copies nothing (NFP charges its
// column slices through it and reads full rows once per origin).
// Cache membership lives in one table per machine mapping each cached node
// to the bitmask of the local GPUs holding it, so classifying a row is one
// hash probe.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/types.h"
#include "graph/dataset.h"
#include "sim/sim_context.h"
#include "tensor/codec.h"
#include "tensor/tensor.h"

namespace apt {

/// Where a feature row was served from.
enum class FeatureTier : int {
  kGpuCache = 0,
  kPeerGpu = 1,
  kLocalCpu = 2,
  kRemoteCpu = 3,
};
inline constexpr int kNumFeatureTiers = 4;

const char* ToString(FeatureTier t);

/// Byte counts per tier for one gather (or accumulated over an epoch);
/// the raw material of the cost model's T_load. `bytes` is the LOGICAL
/// (fp32) volume; `wire_bytes` is what actually moves when the store keeps
/// rows in compressed form (== bytes under the identity codec).
struct LoadVolume {
  std::array<std::int64_t, kNumFeatureTiers> bytes{};
  std::array<std::int64_t, kNumFeatureTiers> wire_bytes{};
  std::array<std::int64_t, kNumFeatureTiers> rows{};

  void Add(const LoadVolume& o) {
    for (int i = 0; i < kNumFeatureTiers; ++i) {
      bytes[static_cast<std::size_t>(i)] += o.bytes[static_cast<std::size_t>(i)];
      wire_bytes[static_cast<std::size_t>(i)] +=
          o.wire_bytes[static_cast<std::size_t>(i)];
      rows[static_cast<std::size_t>(i)] += o.rows[static_cast<std::size_t>(i)];
    }
  }
  /// Wire bytes for a tier, falling back to logical bytes for volumes built
  /// by hand without wire tracking (wire > 0 whenever a tracked tier served
  /// any row, so the fallback never masks real compression).
  std::int64_t WireBytes(FeatureTier t) const {
    const auto i = static_cast<std::size_t>(t);
    return wire_bytes[i] > 0 ? wire_bytes[i] : bytes[i];
  }
  std::int64_t TotalBytes() const {
    std::int64_t t = 0;
    for (auto b : bytes) t += b;
    return t;
  }
  std::int64_t TotalWireBytes() const {
    std::int64_t t = 0;
    for (int i = 0; i < kNumFeatureTiers; ++i) {
      t += WireBytes(static_cast<FeatureTier>(i));
    }
    return t;
  }
  std::int64_t CpuBytes() const {
    return bytes[static_cast<std::size_t>(FeatureTier::kLocalCpu)] +
           bytes[static_cast<std::size_t>(FeatureTier::kRemoteCpu)];
  }
};

class FeatureStore {
 public:
  /// `features` must outlive the store. `node_machine[v]` names the machine
  /// whose CPU memory holds v's feature (size == num rows of features).
  FeatureStore(const Tensor& features, std::vector<MachineId> node_machine,
               SimContext& ctx);

  /// Procedural store (scale sweeps): no backing matrix — row v's features are
  /// generated on demand from a hash of (seed, v, col), so 100M-node-class
  /// graphs train without materializing num_nodes x dim fp32. Deterministic
  /// and batching-independent: the same (node, col) always reads the same
  /// value, and lossy storage codecs round each generated row exactly as the
  /// materialized path rounds its stored row.
  FeatureStore(NodeId num_nodes, std::int64_t feature_dim, std::uint64_t seed,
               std::vector<MachineId> node_machine, SimContext& ctx);

  /// Selects the at-rest representation for every tier (CPU shards and GPU
  /// caches alike). A lossy codec rounds each row ONCE, at the storage tier,
  /// in fixed row-major order — every consumer then observes the identical
  /// rounded values regardless of which tier served it or how the gather was
  /// batched (the producer-side half of DESIGN.md invariant 8). With
  /// `materialize` false (dry-run scratch stores) only the byte accounting
  /// changes and no rounded copy is built; Gather must not be called then.
  /// Call before ConfigureCaches / any gather.
  void SetStorageCodec(Codec codec, bool materialize = true);
  Codec storage_codec() const { return storage_codec_; }

  /// Bytes one cached row of `width` columns occupies under the storage
  /// codec (what ConfigureCaches callers should pass per cached row).
  std::int64_t CachedRowBytes(std::int64_t width) const {
    return CodecWireBytes(storage_codec_, 1, width);
  }

  /// Installs per-device cached node sets (from a CachePolicy), replacing
  /// the membership of any earlier call, and rebuilds the per-machine mask
  /// tables. For NFP the cached slice is narrower; `bytes_per_cached_row`
  /// lets the caller account the true footprint. Registers the footprint
  /// with SimContext memory.
  void ConfigureCaches(const std::vector<std::vector<NodeId>>& cache_nodes,
                       std::int64_t bytes_per_cached_row);

  /// Gathers columns [col_lo, col_hi) of `nodes` into `out` (resized by the
  /// caller to nodes.size() x (col_hi - col_lo)), charging simulated load
  /// time on `dev` and returning the per-tier volume: CountGather, then Read,
  /// then ChargeLoad.
  LoadVolume Gather(DeviceId dev, std::span<const NodeId> nodes, std::int64_t col_lo,
                    std::int64_t col_hi, Tensor& out);

  /// The copy half of a gather: columns [col_lo, col_hi) of `nodes` into
  /// `out` (nodes.size() x (col_hi - col_lo)), exactly the values Gather
  /// returns under the storage codec, charging nothing. Safe to call
  /// concurrently.
  void Read(std::span<const NodeId> nodes, std::int64_t col_lo, std::int64_t col_hi,
            Tensor& out) const;

  /// The charge half of a gather: `vol` (a CountGather result) as simulated
  /// load time on `dev`, one "gather" trace slice, the traffic counters and
  /// the feature.* metrics. A strategy that charges loads it never copies
  /// (NFP's column slices) calls this alone.
  void ChargeLoad(DeviceId dev, const LoadVolume& vol);

  /// Volume-only variant used by dry-run: classifies tiers and charges
  /// nothing, copies nothing.
  LoadVolume CountGather(DeviceId dev, std::span<const NodeId> nodes,
                         std::int64_t col_lo, std::int64_t col_hi) const;

  /// CountGather of one node list by every device, device g over columns
  /// [bounds[g], bounds[g + 1]) (NFP's slices). Each row is classified once
  /// per residence class, not once per device.
  std::vector<LoadVolume> CountSlices(std::span<const NodeId> nodes,
                                      std::span<const std::int64_t> bounds) const;

  /// Converts a volume into simulated seconds for `dev` (one latency charge
  /// per non-empty tier; bandwidth from the cluster link model).
  double LoadSeconds(DeviceId dev, const LoadVolume& volume) const;

  /// Tier rule: own cache, then an NVLink peer on the same machine, then the
  /// local CPU shard, then a remote one. One table probe per row.
  FeatureTier Classify(DeviceId dev, NodeId v) const {
    return Classify(ResidenceOf(dev), v);
  }

  std::int64_t feature_dim() const {
    return procedural_ ? procedural_dim_ : features_->cols();
  }
  std::int64_t num_nodes() const {
    return procedural_ ? procedural_nodes_ : features_->rows();
  }
  bool procedural() const { return procedural_; }

 private:
  /// The tensor gathers copy from: the caller's fp32 features under the
  /// identity codec, the rounded copy under a lossy one.
  const Tensor& served() const {
    return rounded_.numel() > 0 ? rounded_ : *features_;
  }

  /// Cache membership of one machine: an open-addressing (linear probing)
  /// table from NodeId to the bitmask of the machine's local GPUs that cache
  /// the node (bit i = local GPU i). It holds only cached nodes, at load
  /// factor <= 1/2, so memory is O(cached rows) rather than the O(num_nodes)
  /// bitmap a 100M-node procedural graph cannot afford.
  class CacheMaskTable {
   public:
    /// Sizes the table for up to `max_entries` distinct nodes.
    explicit CacheMaskTable(std::size_t max_entries = 0);
    /// Sets bit `local` in v's mask, inserting v if absent.
    void Set(NodeId v, std::int32_t local);
    /// v's mask; 0 when no local GPU caches v.
    std::uint64_t Find(NodeId v) const {
      if (slots_.empty()) return 0;
      for (std::size_t i = Home(v);; i = (i + 1) & (slots_.size() - 1)) {
        const Slot& s = slots_[i];
        if (s.node == v) return s.mask;
        if (s.node == kEmpty) return 0;
      }
    }

   private:
    static constexpr NodeId kEmpty = -1;
    struct Slot {
      NodeId node = kEmpty;
      std::uint64_t mask = 0;
    };
    std::size_t Home(NodeId v) const {
      return static_cast<std::size_t>(
          (static_cast<std::uint64_t>(v) * 0x9e3779b97f4a7c15ULL) >> shift_);
    }
    std::vector<Slot> slots_;  ///< power-of-two size (or empty)
    int shift_ = 64;           ///< 64 - log2(slots_.size())
  };

  /// What classifying rows for one device needs, resolved once per gather:
  /// its machine's table, its own mask bit, and the masks of the peers it
  /// may read from (zero without NVLink).
  struct Residence {
    const CacheMaskTable* table;
    std::uint64_t own;
    std::uint64_t peers;
    MachineId machine;
  };
  Residence ResidenceOf(DeviceId dev) const;
  /// One empty table per machine; machines hold at most 64 GPUs.
  void InitCacheMasks();
  /// Marks each device that shares the residence class of the device before
  /// it: same machine, equal cache list. Tiers depend on the machine and the
  /// cache set alone, so the two classify every node alike.
  void IndexResidences(const std::vector<std::vector<NodeId>>& cache_nodes);
  /// The volume of rows[t] rows in tier t, `width` columns each.
  LoadVolume SliceVolume(const std::array<std::int64_t, kNumFeatureTiers>& rows,
                         std::int64_t width) const;
  FeatureTier Classify(const Residence& r, NodeId v) const {
    const std::uint64_t mask = r.table->Find(v);
    if ((mask & r.own) != 0) return FeatureTier::kGpuCache;
    if ((mask & r.peers) != 0) return FeatureTier::kPeerGpu;
    return node_machine_[static_cast<std::size_t>(v)] == r.machine
               ? FeatureTier::kLocalCpu
               : FeatureTier::kRemoteCpu;
  }

  const Tensor* features_;  ///< null in procedural mode
  std::vector<MachineId> node_machine_;
  SimContext* ctx_;
  Codec storage_codec_ = Codec::kIdentity;
  Tensor rounded_;  ///< codec-rounded copy (empty when identity/unmaterialized)
  std::vector<CacheMaskTable> cache_masks_;  ///< one per machine
  std::vector<bool> shares_residence_;       ///< per device, see IndexResidences
  bool procedural_ = false;
  NodeId procedural_nodes_ = 0;
  std::int64_t procedural_dim_ = 0;
  std::uint64_t procedural_seed_ = 0;
};

/// Assigns features to machines: node v lives on the machine hosting the
/// device that owns v's partition. With one machine everything is local.
std::vector<MachineId> FeaturePlacementFromPartition(
    const std::vector<PartId>& part, const ClusterSpec& cluster);

/// The store over `dataset`'s features: procedural when the dataset
/// generates them (no matrix, procedural_feature_dim > 0), else over its
/// materialized matrix. The trainer, the dry-run and the serving engine all
/// build their stores here, so each handles both kinds of dataset.
std::unique_ptr<FeatureStore> MakeFeatureStore(const Dataset& dataset,
                                               std::vector<MachineId> node_machine,
                                               SimContext& ctx);

}  // namespace apt
