// Step plans shared by the executors and counted by the dry-run: the flat
// (origin, owner) pair routing of SNP and DNP, and NFP's column slices.
//
// SNP and DNP send each origin's layer-1 work to the devices that own its
// nodes and bring rows back. A step's routing is flat: every (origin,
// owner) pair that carries items owns one contiguous range of a single
// step-wide buffer (origin-major, owners ascending), and each owner sees its
// pairs as one contiguous row block (origins ascending). A step therefore
// costs O(items moved + pairs) host work rather than O(C^2) per-pair
// objects, and each shuffle charges one sparse lane per non-empty pair
// (DESIGN.md "Pair routing on the host"). Per strategy, one builder turns the
// step's batches into its plan (RoutePlan, NfpPlan), one function gives each
// device's load (StepLoad), and one prices the step as its ordered charge
// list (StepCharges). Each executor runs its plan on the host, then commits
// the list once (CommitCharges); the dry-run counts the same list, so the
// two cannot drift apart.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <variant>
#include <vector>

#include "core/types.h"
#include "engine/engine_types.h"
#include "feature/feature_store.h"
#include "model/gnn_model.h"
#include "sampling/block.h"
#include "sim/hardware.h"
#include "sim/sim_context.h"
#include "tensor/tensor.h"

namespace apt {

/// One (origin, owner) pair that carries items: the owner does layer-1 work
/// for the origin. The pair's items are [first, last) of the step's flat
/// buffer; in the owner's row block they start at `row`.
struct RoutePair {
  DeviceId origin = 0;
  DeviceId owner = 0;
  std::size_t first = 0;
  std::size_t last = 0;
  std::int64_t row = 0;

  std::int64_t items() const { return static_cast<std::int64_t>(last - first); }
  /// This pair's entries of a per-item step buffer.
  template <typename T>
  std::span<const T> Of(const std::vector<T>& per_item) const {
    return std::span<const T>(per_item).subspan(first, last - first);
  }
};

/// A step's routing: the non-empty pairs numbered origin-major with owners
/// ascending, so each origin's items are one contiguous run of the buffer,
/// and the same pairs listed per owner with origins ascending, so each
/// owner's rows form one contiguous block.
struct PairRouting {
  std::vector<RoutePair> pairs;
  std::vector<std::size_t> origin_ptr{0};  ///< origin o: pairs [origin_ptr[o], origin_ptr[o+1])
  std::vector<std::size_t> owner_ptr;      ///< owner g: by_owner[owner_ptr[g], owner_ptr[g+1])
  std::vector<std::size_t> by_owner;       ///< pair indices
  std::vector<std::int64_t> owner_rows;    ///< rows in each owner's block

  std::span<const RoutePair> OfOrigin(DeviceId o) const {
    const auto i = static_cast<std::size_t>(o);
    return std::span<const RoutePair>(pairs).subspan(origin_ptr[i],
                                                     origin_ptr[i + 1] - origin_ptr[i]);
  }
  std::span<const std::size_t> OfOwner(DeviceId g) const {
    const auto i = static_cast<std::size_t>(g);
    return std::span<const std::size_t>(by_owner).subspan(owner_ptr[i],
                                                          owner_ptr[i + 1] - owner_ptr[i]);
  }
  std::int64_t Rows(DeviceId g) const { return owner_rows[static_cast<std::size_t>(g)]; }

  /// Builds the per-owner view once every origin is closed.
  void IndexOwners(std::int32_t c) {
    const auto n = static_cast<std::size_t>(c);
    owner_ptr.assign(n + 1, 0);
    for (const RoutePair& pr : pairs) ++owner_ptr[static_cast<std::size_t>(pr.owner) + 1];
    for (std::size_t g = 0; g < n; ++g) owner_ptr[g + 1] += owner_ptr[g];
    std::vector<std::size_t> next(owner_ptr.begin(), owner_ptr.end() - 1);
    owner_rows.assign(n, 0);
    by_owner.resize(pairs.size());
    for (std::size_t p = 0; p < pairs.size(); ++p) {
      RoutePair& pr = pairs[p];
      const auto g = static_cast<std::size_t>(pr.owner);
      by_owner[next[g]++] = p;
      pr.row = owner_rows[g];
      owner_rows[g] += pr.items();
    }
  }

  /// Owner g's row-block boundaries, one segment per pair.
  std::vector<std::int64_t> Segments(DeviceId g) const {
    std::vector<std::int64_t> seg;
    for (std::size_t p : OfOwner(g)) seg.push_back(pairs[p].row);
    seg.push_back(Rows(g));
    return seg;
  }
};

/// Per-owner scratch for bucketing one origin's items by owner (a counting
/// sort). Only the owners an origin touches are visited and reset, so a
/// step costs O(items + touched owners), not O(C) per item.
struct OwnerBuckets {
  explicit OwnerBuckets(std::int32_t c)
      : count(static_cast<std::size_t>(c), 0), extra(count), next(count), extra_next(count),
        seen(count.size(), -1) {}

  /// True the first time owner g is seen under `stamp`.
  bool FirstSight(DeviceId g, std::int64_t stamp) {
    std::int64_t& s = seen[static_cast<std::size_t>(g)];
    if (s == stamp) return false;
    s = stamp;
    return true;
  }
  /// Counts one item for owner g.
  void Count(DeviceId g) {
    if (count[static_cast<std::size_t>(g)]++ == 0) touched.push_back(g);
  }
  /// Lays out origin o's touched owners in ascending order, each owner's
  /// items from `base` and its extra payload from `extra_base`, appends one
  /// pair per owner, and resets the counts.
  void Layout(DeviceId o, std::size_t& base, std::size_t& extra_base, PairRouting& routing) {
    std::sort(touched.begin(), touched.end());
    for (DeviceId g : touched) {
      const auto i = static_cast<std::size_t>(g);
      routing.pairs.push_back({o, g, base, base + count[i], 0});
      next[i] = base;
      extra_next[i] = extra_base;
      base += count[i];
      extra_base += extra[i];
      count[i] = extra[i] = 0;
    }
    routing.origin_ptr.push_back(routing.pairs.size());
    touched.clear();
  }

  std::vector<std::size_t> count;       ///< items per owner
  std::vector<std::size_t> extra;       ///< extra payload per owner (sources)
  std::vector<std::size_t> next;        ///< fill cursor of each owner's items
  std::vector<std::size_t> extra_next;  ///< fill cursor of each owner's payload
  std::vector<std::int64_t> seen;       ///< stamp of the last item that saw each owner
  std::vector<DeviceId> touched;
};

/// Node -> gather-row map reused across (owner, origin) pairs: open
/// addressing over a power-of-two table whose slots carry a generation
/// stamp, so starting the next pair is O(1) instead of a fresh hash map.
class NodeRowTable {
 public:
  /// Starts a new pair expecting at most `n` distinct nodes.
  void Reset(std::size_t n) {
    std::size_t cap = 16;
    while (cap < 2 * n) cap <<= 1;
    if (cap > keys_.size()) {
      keys_.assign(cap, 0);
      rows_.assign(cap, 0);
      gen_of_.assign(cap, 0);
      gen_ = 0;
    }
    if (++gen_ == 0) {
      std::fill(gen_of_.begin(), gen_of_.end(), 0);
      gen_ = 1;
    }
  }
  /// Row of `node` for the current pair; a first sighting becomes the next
  /// row of `rows` (the device's batched gather list).
  std::int64_t Insert(NodeId node, std::vector<NodeId>& rows) {
    const std::size_t mask = keys_.size() - 1;
    std::size_t i =
        static_cast<std::size_t>((static_cast<std::uint64_t>(node) * 0x9E3779B97F4A7C15ULL) >> 32) &
        mask;
    while (gen_of_[i] == gen_) {
      if (keys_[i] == node) return rows_[i];
      i = (i + 1) & mask;
    }
    gen_of_[i] = gen_;
    keys_[i] = node;
    rows_[i] = static_cast<std::int64_t>(rows.size());
    rows.push_back(node);
    return rows_[i];
  }

 private:
  std::vector<NodeId> keys_;
  std::vector<std::int64_t> rows_;
  std::vector<std::uint32_t> gen_of_;
  std::uint32_t gen_ = 0;
};

/// The device that does origin `o`'s layer-1 work on node u: the owner of
/// u's partition. Under hybrid routing (`machine_local` set; the paper's
/// future-work proposal) a node owned on another machine stays with its
/// origin, so no hidden embedding crosses the inter-machine network.
struct NodeRouter {
  const std::vector<PartId>* partition = nullptr;
  const ClusterSpec* machine_local = nullptr;

  DeviceId Owner(NodeId u) const {
    return static_cast<DeviceId>((*partition)[static_cast<std::size_t>(u)]);
  }
  DeviceId operator()(DeviceId o, NodeId u) const {
    const DeviceId g = Owner(u);
    if (machine_local == nullptr) return g;
    return machine_local->MachineOf(g) == machine_local->MachineOf(o) ? g : o;
  }
};

/// One step's Permute result for SNP or DNP: the pairs and one record per
/// item in the flat buffer's order (the records its graph shuffle ships to
/// the owners). An item is
///  * SNP under SAGE: a virtual node, one per destination and device that
///    holds one of its sources or the destination itself (the self term);
///  * SNP under GAT: a layer-1 source whose z row its owner projects;
///  * DNP: a destination with its full sampled edge list.
struct RoutePlan {
  PairRouting routing;
  std::vector<std::int64_t> local;  ///< row at the origin (dst row; GAT: z row)
  /// DNP: the destination; SNP SAGE: the destination if the owner adds its
  /// self term, else kInvalidNode; GAT: the requested source.
  std::vector<NodeId> node;
  std::vector<std::int64_t> degree;  ///< SNP SAGE: destination's total sampled degree
  /// Item r's sources are srcs[src_ptr[r], src_ptr[r+1]) (not GAT), so each
  /// pair's sources are contiguous.
  std::vector<std::size_t> src_ptr{0};
  std::vector<NodeId> srcs;

  std::size_t Sources(const RoutePair& pr) const { return src_ptr[pr.last] - src_ptr[pr.first]; }
};

/// `batches[o]` is origin o's sampled step; its first block is layer 1's.
RoutePlan BuildSnpSagePlan(std::span<const DeviceBatch> batches, const NodeRouter& route);
RoutePlan BuildSnpGatPlan(std::span<const DeviceBatch> batches, const NodeRouter& route);
RoutePlan BuildDnpPlan(std::span<const DeviceBatch> batches, const NodeRouter& route);

/// An SNP owner's layer-0 inputs, expanded by SnpLoad one owner at a time
/// so only the owner at hand holds them. GAT fills `gather` alone.
struct SnpOwnerInputs {
  /// The owner's one feature gather: per pair its unique sources in
  /// first-sighting order, then its self rows.
  std::vector<NodeId> gather;
  std::vector<std::int64_t> indptr, col;  ///< virtual node -> gather rows of its sources
  std::vector<float> inv_deg;             ///< 1 / total degree, per virtual node
  std::vector<std::int64_t> self_gather;  ///< gather rows of the self terms
  std::vector<std::int64_t> self_rows;    ///< block rows with a self term
  std::vector<std::int64_t> self_seg;     ///< per-pair boundaries of self_rows
};

/// The backward shuffle's payload: each owner's row block of `cols`-wide
/// rows, filled pair by pair from its origins' gradients (`per_origin`,
/// rows picked by `local`). An origin with items has seeds, hence a gradient.
std::vector<Tensor> RowsToOwners(const RoutePlan& plan, const std::vector<Tensor>& per_origin,
                                 std::int64_t cols);

/// NFP's column slices of a `dim`-wide feature dimension: device g gets
/// columns [bounds[g], bounds[g + 1]). The first dim % num_devices devices
/// get one extra column, and devices at or past `dim` get none.
inline std::vector<std::int64_t> SliceBounds(std::int64_t dim, std::int32_t num_devices) {
  std::vector<std::int64_t> bounds{0};
  for (DeviceId g = 0; g < num_devices; ++g) {
    bounds.push_back(bounds.back() + dim / num_devices + (g < dim % num_devices ? 1 : 0));
  }
  return bounds;
}

/// One NFP step as its charges count it: every device loads its column
/// slice of every origin's layer-1 sources and keeps a partial layer-1
/// output per origin with destinations until the partials are allreduced.
struct NfpPlan {
  std::vector<NodeId> sources;       ///< every origin's sources, origin after origin
  std::vector<std::int64_t> bounds;  ///< device g's columns [bounds[g], bounds[g+1])
  std::int64_t graph_bytes = 0;      ///< the AllBroadcast of the layer-1 graphs
  /// Each origin's partial rows: its destinations under SAGE, every
  /// source's projection under GAT (attention needs whole z rows); none
  /// without destinations.
  std::vector<std::int64_t> partials;

  std::int64_t rows() const { return static_cast<std::int64_t>(sources.size()); }
};
/// `d` is the feature dimension.
NfpPlan BuildNfpPlan(std::span<const DeviceBatch> batches, std::int64_t d, bool gat);

/// A device's feature load in a step and the transient bytes it notes: each
/// strategy's one load rule below, carried to the simulator and the dry-run by
/// its step's charges. Expansions land in caller scratch. `out` is layer 0's width.
struct StepLoad {
  LoadVolume volume;
  std::int64_t transient = 0;
};
/// GDP device g: `nodes` (its batch's inputs) at full width, plus their copy.
StepLoad GdpLoad(const FeatureStore& store, DeviceId g, std::span<const NodeId> nodes);
/// NFP, every device from one CountSlices: its column slice of every
/// origin's sources, plus its partials.
std::vector<StepLoad> NfpLoads(const FeatureStore& store, const NfpPlan& plan, std::int64_t out);
/// SNP owner g: `in` (SAGE dedups with `table`), in.gather at full width,
/// plus its partial outputs (SAGE) or its features again and its z rows (GAT).
StepLoad SnpLoad(const FeatureStore& store, const RoutePlan& plan, DeviceId g, bool gat,
                 std::int64_t out, NodeRowTable& table, SnpOwnerInputs& in);
/// DNP owner g: its layer-1 block `lb` (destination rows, origins ascending,
/// then each pair's sources deduplicated within the pair; a record keeps its
/// row even if two origins send its node), its sources loaded by GDP's rule.
StepLoad DnpLoad(const FeatureStore& store, const RoutePlan& plan, DeviceId g,
                 NodeRowTable& table, Block& lb);

/// Device `dev` loads `load.volume` (ChargeLoad) and notes `load.transient`.
/// A volume of no rows (an NFP step without sources, an SNP owner with
/// nothing to gather) is not charged; its transient is still noted.
struct LoadCharge { DeviceId dev; StepLoad load; };
struct ComputeCharge { DeviceId dev; double flops; };
/// ChargeAllReduce if `reduce`, else ChargeAllBroadcast.
struct RingCharge { bool reduce; Phase phase; std::int64_t bytes, wire; };
struct AllToAllCharge { Phase phase; AllToAllTraffic traffic; };
/// One step's charges in commit order, priced by each strategy's pure builder
/// from its plan, each device's load (`loads[g]`), the sampled batches (a
/// device without seeds trains nothing), the model and the wire codec.
using StepCharge = std::variant<LoadCharge, ComputeCharge, RingCharge, AllToAllCharge>;
using StepCharges = std::vector<StepCharge>;

/// Each device with seeds: its full-width load, then its whole model pass.
StepCharges GdpCharges(const GnnModel& model, std::span<const DeviceBatch> batches,
                       std::span<const StepLoad> loads);
/// The graph broadcast; each device's slice load and flops; a partial
/// allreduce per origin with destinations; the origins' layers 1.. (GAT:
/// then attention); the gradient broadcast; the slice weight gradients.
StepCharges NfpCharges(const GnnModel& model, std::span<const DeviceBatch> batches,
                       const NfpPlan& plan, std::span<const StepLoad> loads, Codec wire);
/// The graph shuffle; each owner's load and layer-0 pass; its rows back to
/// the origins; the origins' layers 1.. (GAT: then attention); the gradient
/// rows to the owners; the owners' weight gradients. A DNP owner runs
/// `owner_blocks[g]` (DnpLoad's block) and is skipped without destinations.
StepCharges SnpCharges(const GnnModel& model, std::span<const DeviceBatch> batches,
                       const RoutePlan& plan, std::span<const StepLoad> loads, Codec wire);
StepCharges DnpCharges(const GnnModel& model, std::span<const DeviceBatch> batches,
                       const RoutePlan& plan, std::span<const StepLoad> loads,
                       std::span<const Block> owner_blocks, Codec wire);
/// dst.row(dst_row0 + k) = src.row(index[k]): an owner's row block filled
/// from an origin's rows.
inline void CopyRowsTo(const Tensor& src, std::span<const std::int64_t> index, Tensor& dst,
                       std::int64_t dst_row0) {
  for (std::size_t k = 0; k < index.size(); ++k) {
    std::copy_n(src.row(index[k]), src.cols(), dst.row(dst_row0 + static_cast<std::int64_t>(k)));
  }
}

/// dst.row(index[k]) = src.row(src_row0 + k): an owner's row block
/// scattered back to an origin's rows.
inline void CopyRowsFrom(const Tensor& src, std::int64_t src_row0,
                         std::span<const std::int64_t> index, Tensor& dst) {
  for (std::size_t k = 0; k < index.size(); ++k) {
    std::copy_n(src.row(src_row0 + static_cast<std::int64_t>(k)), src.cols(), dst.row(index[k]));
  }
}

}  // namespace apt
