#include "engine/pair_routing.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/error.h"

namespace apt {

namespace {

/// Owner g's items' nodes, its pairs in turn.
void OwnerNodes(const RoutePlan& plan, DeviceId g, std::vector<NodeId>& out) {
  out.clear();
  for (std::size_t p : plan.routing.OfOwner(g)) {
    const std::span<const NodeId> nodes = plan.routing.pairs[p].Of(plan.node);
    out.insert(out.end(), nodes.begin(), nodes.end());
  }
}

/// Splits each origin's destinations into records, one per destination and
/// device that `target(o, dst, u)` sends one of its sources u to, plus one on
/// the device its own node goes to (which adds the self term). Two passes
/// per origin: count per touched device, then fill the devices' blocks.
/// Each device's records keep destination order, and a record's sources
/// keep edge order.
template <typename Target>
RoutePlan SplitDestinations(std::span<const DeviceBatch> batches, const Target& target,
                            bool with_degree) {
  const auto c = static_cast<std::int32_t>(batches.size());
  RoutePlan plan;
  OwnerBuckets buckets(c);
  std::vector<DeviceId> edge_owner, dst_owners;
  std::int64_t stamp = 0;
  std::size_t num_rec = 0, num_srcs = 0;
  for (DeviceId o = 0; o < c; ++o) {
    const Block& b = batches[static_cast<std::size_t>(o)].sample.blocks.front();
    const auto node = [&](std::int64_t i) { return b.src_nodes[static_cast<std::size_t>(i)]; };
    const auto src_of = [&](std::int64_t e) { return node(b.col[static_cast<std::size_t>(e)]); };
    edge_owner.resize(static_cast<std::size_t>(b.num_edges()));
    for (std::int64_t i = 0; i < b.num_dst; ++i) {
      ++stamp;
      for (std::int64_t e = b.indptr[static_cast<std::size_t>(i)];
           e < b.indptr[static_cast<std::size_t>(i) + 1]; ++e) {
        const DeviceId g = target(o, node(i), src_of(e));
        edge_owner[static_cast<std::size_t>(e)] = g;
        ++buckets.extra[static_cast<std::size_t>(g)];
        if (buckets.FirstSight(g, stamp)) buckets.Count(g);
      }
      const DeviceId self_owner = target(o, node(i), node(i));
      if (buckets.FirstSight(self_owner, stamp)) buckets.Count(self_owner);
    }
    buckets.Layout(o, num_rec, num_srcs, plan.routing);
    plan.local.resize(num_rec);
    if (with_degree) plan.degree.resize(num_rec);
    plan.node.resize(num_rec);
    plan.src_ptr.resize(num_rec + 1);
    plan.srcs.resize(num_srcs);
    // Destination i's record on device g opens where g's sources cursor
    // stands when g is first seen for i.
    const auto open = [&](DeviceId g) {
      if (!buckets.FirstSight(g, stamp)) return;
      const auto gi = static_cast<std::size_t>(g);
      dst_owners.push_back(g);
      plan.src_ptr[buckets.next[gi]] = buckets.extra_next[gi];
    };
    for (std::int64_t i = 0; i < b.num_dst; ++i) {
      ++stamp;
      dst_owners.clear();
      const std::int64_t e0 = b.indptr[static_cast<std::size_t>(i)];
      const std::int64_t e1 = b.indptr[static_cast<std::size_t>(i) + 1];
      for (std::int64_t e = e0; e < e1; ++e) {
        const DeviceId g = edge_owner[static_cast<std::size_t>(e)];
        open(g);
        plan.srcs[buckets.extra_next[static_cast<std::size_t>(g)]++] = src_of(e);
      }
      const DeviceId self_owner = target(o, node(i), node(i));
      open(self_owner);
      for (DeviceId g : dst_owners) {
        const std::size_t r = buckets.next[static_cast<std::size_t>(g)]++;
        plan.local[r] = i;
        if (with_degree) plan.degree[r] = e1 - e0;
        plan.node[r] = g == self_owner ? node(i) : kInvalidNode;
      }
    }
    plan.src_ptr.back() = num_srcs;
  }
  plan.routing.IndexOwners(c);
  return plan;
}

/// One message per pair, each origin sending to its owners (`to_owners`) or
/// each owner back to its origins; `lane(pair)` is its {logical, wire} bytes.
template <typename Lane>
AllToAllTraffic PairTraffic(const PairRouting& routing, bool to_owners, const Lane& lane) {
  AllToAllTraffic traffic;
  const auto add = [&](const RoutePair& pr) {
    const auto [bytes, wire] = lane(pr);
    traffic.Add(to_owners ? pr.owner : pr.origin, bytes, wire);
  };
  for (std::size_t d = 0; d < routing.owner_rows.size(); ++d) {
    if (to_owners) {
      for (const RoutePair& pr : routing.OfOrigin(static_cast<DeviceId>(d))) add(pr);
    } else {
      for (std::size_t p : routing.OfOwner(static_cast<DeviceId>(d))) add(routing.pairs[p]);
    }
    traffic.EndSender();
  }
  return traffic;
}

/// The graph shuffle of `plan`: a pair's n records travel as `fields` int64
/// fields each plus, when they carry sources, a source indptr (n + 1) and
/// the sources.
AllToAllTraffic GraphTraffic(const RoutePlan& plan, std::int64_t fields, bool with_sources) {
  return PairTraffic(plan.routing, /*to_owners=*/true, [&](const RoutePair& pr) {
    const std::int64_t words =
        fields * pr.items() +
        (with_sources ? pr.items() + 1 + static_cast<std::int64_t>(plan.Sources(pr)) : 0);
    return std::pair<std::int64_t, std::int64_t>(8 * words, 8 * words);
  });
}

/// Each origin with seeds: its load when `loads` is given (GDP), its layers
/// from `first_layer` on and, under `attention`, then layer 0's attention.
void OriginCharges(const GnnModel& model, std::span<const DeviceBatch> batches,
                   std::span<const StepLoad> loads, int first_layer, bool attention,
                   StepCharges& charges) {
  for (std::size_t o = 0; o < batches.size(); ++o) {
    const SampledBatch& s = batches[o].sample;
    if (s.seeds.empty()) continue;
    const auto dev = static_cast<DeviceId>(o);
    if (!loads.empty()) charges.push_back(LoadCharge{dev, loads[o]});
    charges.push_back(ComputeCharge{dev, model.StepFlops(s.blocks, first_layer)});
    if (!attention) continue;
    const Block& b = s.blocks.front();
    charges.push_back(
        ComputeCharge{dev, model.layer(0).ForwardFlops(b.num_src(), b.num_dst, b.num_edges())});
  }
}

/// SNP's and DNP's step, charging each owner g its load and
/// `owner_flops(g, backward)`; with `owner_blocks` (DNP), only owners with
/// destinations.
template <typename OwnerFlops>
StepCharges RoutedCharges(const GnnModel& model, std::span<const DeviceBatch> batches,
                          const RoutePlan& plan, std::span<const StepLoad> loads, Codec wire,
                          AllToAllTraffic graph, bool attention,
                          std::span<const Block> owner_blocks, const OwnerFlops& owner_flops) {
  const auto active = [&](DeviceId g) {
    return owner_blocks.empty() || owner_blocks[static_cast<std::size_t>(g)].num_dst > 0;
  };
  const std::int64_t out = model.layer(0).out_dim();
  const auto rows = [&](bool to_owners) {
    return PairTraffic(plan.routing, to_owners, [&](const RoutePair& pr) {
      return std::pair<std::int64_t, std::int64_t>(pr.items() * out * 4,
                                                   CodecWireBytes(wire, pr.items(), out));
    });
  };
  const auto c = static_cast<DeviceId>(batches.size());
  StepCharges charges;
  charges.push_back(AllToAllCharge{Phase::kSample, std::move(graph)});
  for (DeviceId g = 0; g < c; ++g) {
    if (!active(g)) continue;
    charges.push_back(LoadCharge{g, loads[static_cast<std::size_t>(g)]});
    charges.push_back(ComputeCharge{g, owner_flops(g, false)});
  }
  charges.push_back(AllToAllCharge{Phase::kTrain, rows(/*to_owners=*/false)});
  OriginCharges(model, batches, {}, 1, attention, charges);
  charges.push_back(AllToAllCharge{Phase::kTrain, rows(/*to_owners=*/true)});
  for (DeviceId g = 0; g < c; ++g) {
    if (active(g)) charges.push_back(ComputeCharge{g, owner_flops(g, true)});
  }
  return charges;
}

}  // namespace

// SNP sends each source to the device that routes it.
RoutePlan BuildSnpSagePlan(std::span<const DeviceBatch> batches, const NodeRouter& route) {
  return SplitDestinations(
      batches, [&](DeviceId o, NodeId, NodeId u) { return route(o, u); }, /*with_degree=*/true);
}

// Every layer-1 source node's z row is requested from its owner, one
// request per (origin, owner) pair in source order.
RoutePlan BuildSnpGatPlan(std::span<const DeviceBatch> batches, const NodeRouter& route) {
  const auto c = static_cast<std::int32_t>(batches.size());
  RoutePlan plan;
  OwnerBuckets buckets(c);
  std::vector<DeviceId> src_owner;
  std::size_t num_req = 0, no_extra = 0;
  for (DeviceId o = 0; o < c; ++o) {
    const Block& b = batches[static_cast<std::size_t>(o)].sample.blocks.front();
    src_owner.resize(static_cast<std::size_t>(b.num_src()));
    for (std::int64_t i = 0; i < b.num_src(); ++i) {
      const DeviceId g = route(o, b.src_nodes[static_cast<std::size_t>(i)]);
      src_owner[static_cast<std::size_t>(i)] = g;
      buckets.Count(g);
    }
    buckets.Layout(o, num_req, no_extra, plan.routing);
    plan.node.resize(num_req);
    plan.local.resize(num_req);
    for (std::int64_t i = 0; i < b.num_src(); ++i) {
      const std::size_t slot =
          buckets.next[static_cast<std::size_t>(src_owner[static_cast<std::size_t>(i)])]++;
      plan.node[slot] = b.src_nodes[static_cast<std::size_t>(i)];
      plan.local[slot] = i;
    }
  }
  plan.routing.IndexOwners(c);
  return plan;
}

// DNP sends each destination, with all of its sources, to its owner alone.
RoutePlan BuildDnpPlan(std::span<const DeviceBatch> batches, const NodeRouter& route) {
  return SplitDestinations(
      batches, [&](DeviceId, NodeId dst, NodeId) { return route.Owner(dst); },
      /*with_degree=*/false);
}

StepLoad SnpLoad(const FeatureStore& store, const RoutePlan& plan, DeviceId g, bool gat,
                 std::int64_t out, NodeRowTable& table, SnpOwnerInputs& in) {
  const std::int64_t d = store.feature_dim();
  const std::int64_t rows = plan.routing.Rows(g);
  if (gat) {
    OwnerNodes(plan, g, in.gather);
    return {store.CountGather(g, in.gather, 0, d), (2 * rows * d + rows * out) * 4};
  }
  in.gather.clear();
  in.indptr.assign(1, 0);
  in.col.clear();
  in.inv_deg.clear();
  in.self_gather.clear();
  in.self_rows.clear();
  in.self_seg.assign(1, 0);
  for (std::size_t p : plan.routing.OfOwner(g)) {
    const RoutePair& pr = plan.routing.pairs[p];
    const std::size_t s0 = plan.src_ptr[pr.first], s1 = plan.src_ptr[pr.last];
    table.Reset(s1 - s0);
    for (std::size_t s = s0; s < s1; ++s) in.col.push_back(table.Insert(plan.srcs[s], in.gather));
    const std::int64_t col0 = in.indptr.back();
    for (std::size_t v = pr.first; v < pr.last; ++v) {
      in.indptr.push_back(col0 + static_cast<std::int64_t>(plan.src_ptr[v + 1] - s0));
      in.inv_deg.push_back(1.0f / static_cast<float>(plan.degree[v]));
    }
    for (std::size_t v = pr.first; v < pr.last; ++v) {
      if (plan.node[v] == kInvalidNode) continue;
      in.self_rows.push_back(pr.row + static_cast<std::int64_t>(v - pr.first));
      in.self_gather.push_back(static_cast<std::int64_t>(in.gather.size()));
      in.gather.push_back(plan.node[v]);
    }
    in.self_seg.push_back(static_cast<std::int64_t>(in.self_rows.size()));
  }
  return {store.CountGather(g, in.gather, 0, d),
          (static_cast<std::int64_t>(in.gather.size()) * d + rows * out) * 4};
}

StepLoad DnpLoad(const FeatureStore& store, const RoutePlan& plan, DeviceId g,
                 NodeRowTable& table, Block& lb) {
  OwnerNodes(plan, g, lb.src_nodes);
  lb.num_dst = plan.routing.Rows(g);
  lb.indptr.assign(1, 0);
  lb.col.clear();
  for (std::size_t p : plan.routing.OfOwner(g)) {
    const RoutePair& pr = plan.routing.pairs[p];
    table.Reset(plan.Sources(pr));
    for (std::size_t r = pr.first; r < pr.last; ++r) {
      for (std::size_t s = plan.src_ptr[r]; s < plan.src_ptr[r + 1]; ++s) {
        lb.col.push_back(table.Insert(plan.srcs[s], lb.src_nodes));
      }
      lb.indptr.push_back(static_cast<std::int64_t>(lb.col.size()));
    }
  }
  return GdpLoad(store, g, lb.src_nodes);
}

std::vector<Tensor> RowsToOwners(const RoutePlan& plan, const std::vector<Tensor>& per_origin,
                                 std::int64_t cols) {
  const PairRouting& routing = plan.routing;
  std::vector<Tensor> rows(routing.owner_rows.size());
  for (std::size_t g = 0; g < rows.size(); ++g) {
    rows[g] = Tensor(routing.owner_rows[g], cols);
    for (std::size_t p : routing.OfOwner(static_cast<DeviceId>(g))) {
      const RoutePair& pr = routing.pairs[p];
      const Tensor& src = per_origin[static_cast<std::size_t>(pr.origin)];
      APT_CHECK_GT(src.rows(), 0);
      CopyRowsTo(src, pr.Of(plan.local), rows[g], pr.row);
    }
  }
  return rows;
}

NfpPlan BuildNfpPlan(std::span<const DeviceBatch> batches, std::int64_t d, bool gat) {
  NfpPlan plan;
  plan.bounds = SliceBounds(d, static_cast<std::int32_t>(batches.size()));
  for (const DeviceBatch& batch : batches) {
    const Block& b = batch.sample.blocks.front();
    plan.sources.insert(plan.sources.end(), b.src_nodes.begin(), b.src_nodes.end());
    plan.graph_bytes += b.bytes();
    plan.partials.push_back(b.num_dst == 0 ? 0 : gat ? b.num_src() : b.num_dst);
  }
  return plan;
}

StepLoad GdpLoad(const FeatureStore& store, DeviceId g, std::span<const NodeId> nodes) {
  const std::int64_t d = store.feature_dim();
  return {store.CountGather(g, nodes, 0, d), 2 * static_cast<std::int64_t>(nodes.size()) * d * 4};
}

std::vector<StepLoad> NfpLoads(const FeatureStore& store, const NfpPlan& plan, std::int64_t out) {
  const std::int64_t partial_rows =
      std::accumulate(plan.partials.begin(), plan.partials.end(), std::int64_t{0});
  std::vector<StepLoad> loads;
  for (const LoadVolume& vol : store.CountSlices(plan.sources, plan.bounds)) {
    const std::int64_t width = plan.bounds[loads.size() + 1] - plan.bounds[loads.size()];
    loads.push_back({vol, (plan.rows() * width + partial_rows * out) * 4});
  }
  return loads;
}

StepCharges GdpCharges(const GnnModel& model, std::span<const DeviceBatch> batches,
                       std::span<const StepLoad> loads) {
  StepCharges charges;
  OriginCharges(model, batches, loads, 0, /*attention=*/false, charges);
  return charges;
}

StepCharges NfpCharges(const GnnModel& model, std::span<const DeviceBatch> batches,
                       const NfpPlan& plan, std::span<const StepLoad> loads, Codec wire) {
  const bool gat = model.config().kind == ModelKind::kGat;
  const std::int64_t out = model.layer(0).out_dim();
  // Device g's slice of each origin with destinations: forward, projected
  // (SAGE: aggregated, then the aggregate and self rows projected); backward,
  // one weight-slice GEMM per saved input (GAT: h; SAGE: both) on its rows.
  const auto slice_flops = [&](std::size_t g, bool backward) {
    const std::int64_t w = plan.bounds[g + 1] - plan.bounds[g];
    double flops = 0.0;
    for (std::size_t o = 0; o < batches.size(); ++o) {
      const Block& b = batches[o].sample.blocks.front();
      const std::int64_t rows = plan.partials[o];
      if (rows == 0) continue;
      if (backward) {
        flops += (gat ? 2.0 : 4.0) * static_cast<double>(rows) * w * out;
      } else {
        flops += gat ? 2.0 * static_cast<double>(b.num_src()) * w * out
                     : 4.0 * static_cast<double>(b.num_dst) * w * out +
                           2.0 * static_cast<double>(b.num_edges()) * w;
      }
    }
    return flops;
  };
  // Every device reads every origin's layer-1 graph in place.
  StepCharges charges;
  charges.push_back(RingCharge{false, Phase::kSample, plan.graph_bytes, plan.graph_bytes});
  for (std::size_t g = 0; g < batches.size(); ++g) {
    charges.push_back(LoadCharge{static_cast<DeviceId>(g), loads[g]});
    charges.push_back(ComputeCharge{static_cast<DeviceId>(g), slice_flops(g, false)});
  }
  // A SparseAllreduce of each origin's partials; the gradient broadcast
  // later moves the same rows back to every device.
  std::int64_t grad_bytes = 0, grad_wire = 0;
  for (const std::int64_t rows : plan.partials) {
    const RingCharge partial{true, Phase::kTrain, rows * out * 4, CodecWireBytes(wire, rows, out)};
    grad_bytes += partial.bytes;
    grad_wire += partial.wire;
    if (rows > 0) charges.push_back(partial);
  }
  OriginCharges(model, batches, {}, 1, /*attention=*/gat, charges);
  charges.push_back(RingCharge{false, Phase::kTrain, grad_bytes, grad_wire});
  for (std::size_t g = 0; g < batches.size(); ++g) {
    charges.push_back(ComputeCharge{static_cast<DeviceId>(g), slice_flops(g, true)});
  }
  return charges;
}

StepCharges SnpCharges(const GnnModel& model, std::span<const DeviceBatch> batches,
                       const RoutePlan& plan, std::span<const StepLoad> loads, Codec wire) {
  const bool gat = model.config().kind == ModelKind::kGat;
  const std::int64_t d = model.layer(0).in_dim();
  const std::int64_t out = model.layer(0).out_dim();
  // Pair by pair, as per-pair kernels charged. GAT projects each requested
  // row and takes its weight gradient; SAGE aggregates a pair's sources,
  // projects its rows and self terms (items naming a node), then both grads.
  const auto owner_flops = [&](DeviceId g, bool backward) {
    double flops = 0.0;
    for (std::size_t p : plan.routing.OfOwner(g)) {
      const RoutePair& pr = plan.routing.pairs[p];
      if (gat || backward) {
        flops += (gat ? 2.0 : 4.0) * static_cast<double>(pr.items()) * d * out;
        continue;
      }
      const std::span<const NodeId> nodes = pr.Of(plan.node);
      const auto num_self = std::count_if(nodes.begin(), nodes.end(),
                                          [](NodeId v) { return v != kInvalidNode; });
      flops += 2.0 * static_cast<double>(plan.Sources(pr)) * d +
               2.0 * static_cast<double>(pr.items()) * d * out +
               2.0 * static_cast<double>(num_self) * d * out;
    }
    return flops;
  };
  // A record is a requested source (GAT), or a virtual node's destination
  // row, degree and self node plus its sources (SAGE).
  return RoutedCharges(model, batches, plan, loads, wire,
                       GraphTraffic(plan, gat ? 1 : 3, /*with_sources=*/!gat), gat, {}, owner_flops);
}

StepCharges DnpCharges(const GnnModel& model, std::span<const DeviceBatch> batches,
                       const RoutePlan& plan, std::span<const StepLoad> loads,
                       std::span<const Block> owner_blocks, Codec wire) {
  const GnnLayer& layer0 = model.layer(0);
  // A record is a destination's row and node plus its sources.
  return RoutedCharges(
      model, batches, plan, loads, wire, GraphTraffic(plan, 2, /*with_sources=*/true),
      /*attention=*/false, owner_blocks, [&](DeviceId g, bool backward) {
        const Block& b = owner_blocks[static_cast<std::size_t>(g)];
        return backward ? layer0.BackwardFlops(b.num_src(), b.num_dst, b.num_edges())
                        : layer0.ForwardFlops(b.num_src(), b.num_dst, b.num_edges());
      });
}

}  // namespace apt
