// Source node parallel (GSplit-style): layer-1 is partitioned by *source*
// node. A destination node whose sampled sources live on a remote device
// gets a virtual node there; the remote device projects and partially
// aggregates its local sources' contributions and a GroupReduce merges the
// partials at the requesting device.
//
// SAGE math: mean_{u in N(d)} h_u W = sum_g [ (1/deg_d) sum_{u local to g} h_u W ],
// so partials scaled by the destination's *total* degree sum exactly to the
// GDP result. The self term W_self h_d is computed by d's owner (the device
// whose partition holds d) and folded into that device's partial.
//
// GAT path: attention needs each destination's complete source view, so the
// owners instead ship *projected source embeddings* (z rows) to the
// requesting device, which runs attention locally — the paper's "extra
// communication for attention-based models".
//
// Host layout: the flat pair routing shared with DNP (engine/pair_routing.h).
// Each device runs one SpMM and one GEMM per weight over its whole row
// block, and the arithmetic is bit-identical to per-pair execution
// (DESIGN.md "Pair routing on the host").
//
// Pipelined execution (EngineOptions::pipeline_depth > 1): the virtual-node
// all-to-all, the owners' source gathers (kLoad) and the partial GroupReduce
// ride the per-device comm stream and overlap with the projection compute of
// the neighbouring micro-batches.
#include <algorithm>
#include <utility>

#include "engine/exec_common.h"
#include "engine/executor.h"
#include "engine/pair_routing.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace apt {

namespace {

/// dst.row(index[k]) += src.row(src_row0 + k), in k order.
void AddRowsAt(const Tensor& src, std::int64_t src_row0, std::span<const std::int64_t> index,
               Tensor& dst) {
  const std::int64_t n = src.cols();
  for (std::size_t k = 0; k < index.size(); ++k) {
    const float* srow = src.row(src_row0 + static_cast<std::int64_t>(k));
    float* drow = dst.row(index[k]);
    for (std::int64_t j = 0; j < n; ++j) drow[j] += srow[j];
  }
}

/// Pair-by-pair flop sum, accumulated in the order per-pair kernels charged.
template <typename PerPair>
double PairFlops(const PairRouting& routing, DeviceId g, const PerPair& per_pair) {
  double flops = 0.0;
  for (std::size_t p : routing.OfOwner(g)) flops += per_pair(routing.pairs[p]);
  return flops;
}

class SnpExecutor final : public StrategyExecutor {
 public:
  /// `machine_local` enables the HYBRID routing the paper's conclusion
  /// proposes as future work: sources whose owner sits on ANOTHER machine
  /// are processed by the requesting device itself (GDP-style), so no
  /// hidden embedding ever crosses the inter-machine network; SNP routing
  /// applies only between devices of the same machine.
  SnpExecutor(EngineCtx& ctx, bool machine_local)
      : StrategyExecutor(ctx), machine_local_(machine_local) {}

  StepStats Step(std::vector<DeviceBatch>& batches) override {
    if (ctx_->model_kind() == ModelKind::kSage) return StepSage(batches);
    return StepGat(batches);
  }

 private:
  /// The device that processes source node u of origin o's subgraph.
  DeviceId RouteOwner(DeviceId origin, NodeId u) const {
    const auto owner = static_cast<DeviceId>(ctx_->OwnerOf(u));
    if (!machine_local_) return owner;
    const ClusterSpec& cluster = ctx_->sim->cluster();
    return cluster.MachineOf(owner) == cluster.MachineOf(origin) ? owner : origin;
  }

  StepStats StepSage(std::vector<DeviceBatch>& batches);
  StepStats StepGat(std::vector<DeviceBatch>& batches);

  bool machine_local_;
};

/// SAGE virtual nodes of one step. Pair p's virtual nodes are
/// [first, last) of these arrays; virtual node v's sources are
/// srcs[src_ptr[v], src_ptr[v+1]), so each pair's sources are contiguous.
struct SnpVirtualNodes {
  std::vector<std::int64_t> dst_local;  ///< row in origin's layer-1 output
  std::vector<std::int64_t> deg_total;  ///< destination's total sampled degree
  std::vector<NodeId> self_node;        ///< kInvalidNode, or dst id if owner(d)==g
  std::vector<std::size_t> src_ptr{0};
  std::vector<NodeId> srcs;  ///< global source ids

  std::size_t Sources(const RoutePair& pr) const { return src_ptr[pr.last] - src_ptr[pr.first]; }
};

/// One owner's layer-0 state over its row block (all of its virtual nodes).
struct SnpOwnerRows {
  Tensor aggd;    ///< partial means, one row per virtual node
  Tensor self_h;  ///< features of the destinations owned here
  Tensor part;    ///< partial layer-0 outputs
  std::vector<std::int64_t> self_rows;  ///< rows with a self term
  std::vector<std::int64_t> self_seg;   ///< per-pair boundaries of self_rows
};

StepStats SnpExecutor::StepSage(std::vector<DeviceBatch>& batches) {
  const std::int32_t c = ctx_->num_devices();
  std::int64_t total_seeds = 0;
  for (const auto& b : batches) total_seeds += static_cast<std::int64_t>(b.labels.size());
  StepStats agg;
  agg.num_seeds = total_seeds;

  // ---- Permute: split each origin's layer-1 graph by source owner. -------
  // A destination gets one virtual node on every owner of one of its
  // sources and on its own owner (which adds the self term); each owner's
  // virtual nodes keep destination order. Two passes per origin: count per
  // touched owner, then fill the owners' blocks.
  obs::StageSpan stage("permute", "snp");
  PairRouting routing;
  SnpVirtualNodes vn;
  {
    OwnerBuckets buckets(c);
    std::vector<DeviceId> edge_owner, dst_owners;
    std::int64_t stamp = 0;
    std::size_t num_vn = 0, num_srcs = 0;
    for (DeviceId o = 0; o < c; ++o) {
      const Block& b = batches[static_cast<std::size_t>(o)].sample.blocks[0];
      const auto src_of = [&](std::int64_t e) {
        return b.src_nodes[static_cast<std::size_t>(b.col[static_cast<std::size_t>(e)])];
      };
      edge_owner.resize(static_cast<std::size_t>(b.num_edges()));
      for (std::int64_t i = 0; i < b.num_dst; ++i) {
        ++stamp;
        for (std::int64_t e = b.indptr[static_cast<std::size_t>(i)];
             e < b.indptr[static_cast<std::size_t>(i) + 1]; ++e) {
          const DeviceId g = RouteOwner(o, src_of(e));
          edge_owner[static_cast<std::size_t>(e)] = g;
          ++buckets.extra[static_cast<std::size_t>(g)];
          if (buckets.FirstSight(g, stamp)) buckets.Count(g);
        }
        const DeviceId self_owner = RouteOwner(o, b.src_nodes[static_cast<std::size_t>(i)]);
        if (buckets.FirstSight(self_owner, stamp)) buckets.Count(self_owner);
      }
      buckets.Layout(o, num_vn, num_srcs, routing);
      vn.dst_local.resize(num_vn);
      vn.deg_total.resize(num_vn);
      vn.self_node.resize(num_vn);
      vn.src_ptr.resize(num_vn + 1);
      vn.srcs.resize(num_srcs);
      // Destination i's virtual node on owner g opens where g's sources
      // cursor stands when g is first seen for i.
      const auto open = [&](DeviceId g) {
        if (!buckets.FirstSight(g, stamp)) return;
        const auto gi = static_cast<std::size_t>(g);
        dst_owners.push_back(g);
        vn.src_ptr[buckets.next[gi]] = buckets.extra_next[gi];
      };
      for (std::int64_t i = 0; i < b.num_dst; ++i) {
        ++stamp;
        dst_owners.clear();
        const std::int64_t e0 = b.indptr[static_cast<std::size_t>(i)];
        const std::int64_t e1 = b.indptr[static_cast<std::size_t>(i) + 1];
        for (std::int64_t e = e0; e < e1; ++e) {
          const DeviceId g = edge_owner[static_cast<std::size_t>(e)];
          open(g);
          vn.srcs[buckets.extra_next[static_cast<std::size_t>(g)]++] = src_of(e);
        }
        const NodeId dst_global = b.src_nodes[static_cast<std::size_t>(i)];
        const DeviceId self_owner = RouteOwner(o, dst_global);
        open(self_owner);
        for (DeviceId g : dst_owners) {
          const std::size_t v = buckets.next[static_cast<std::size_t>(g)]++;
          vn.dst_local[v] = i;
          vn.deg_total[v] = e1 - e0;
          vn.self_node[v] = g == self_owner ? dst_global : kInvalidNode;
        }
      }
      vn.src_ptr.back() = num_srcs;
    }
    routing.IndexOwners(c);
  }

  // ---- Shuffle: virtual-node batches to source owners. --------------------
  // A batch of n virtual nodes travels as dst_local, deg_total, self_node,
  // a source indptr (n + 1) and the sources, all int64. Owners then read
  // their blocks of the step buffer in place.
  stage.Next("shuffle");
  ctx_->comm->ChargeAllToAll(
      routing.Traffic(/*to_owners=*/true,
                      [&](const RoutePair& pr) {
                        const auto bytes = static_cast<std::int64_t>(
                            8 * (4 * (pr.last - pr.first) + 1 + vn.Sources(pr)));
                        return std::pair<std::int64_t, std::int64_t>(bytes, bytes);
                      }),
      Phase::kSample);

  // ---- Execute: partial aggregation + projection at each owner. ----------
  // One batched feature gather per device per step (DGL-style): each
  // origin's unique sources, then its owned destinations' self rows, origin
  // after origin, fetched in a single store request.
  stage.Next("execute");
  const std::int64_t d = ctx_->feature_dim();
  const std::int64_t out = ctx_->model(0).layer(0).out_dim();
  std::vector<SnpOwnerRows> owners(static_cast<std::size_t>(c));
  {
    NodeRowTable table;
    std::vector<NodeId> gather_nodes;
    std::vector<std::int64_t> indptr, col, self_gather;
    std::vector<float> inv_deg;
    for (DeviceId g = 0; g < c; ++g) {
      auto& sage = dynamic_cast<SageLayer&>(ctx_->model(g).layer(0));
      SnpOwnerRows& st = owners[static_cast<std::size_t>(g)];
      gather_nodes.clear();
      indptr.assign(1, 0);
      col.clear();
      self_gather.clear();
      inv_deg.clear();
      st.self_seg.assign(1, 0);
      double flops = 0.0;
      for (std::size_t p : routing.OfOwner(g)) {
        const RoutePair& pr = routing.pairs[p];
        const std::size_t s0 = vn.src_ptr[pr.first], s1 = vn.src_ptr[pr.last];
        table.Reset(s1 - s0);
        for (std::size_t s = s0; s < s1; ++s) col.push_back(table.Insert(vn.srcs[s], gather_nodes));
        const std::int64_t col0 = indptr.back();
        for (std::size_t v = pr.first; v < pr.last; ++v) {
          indptr.push_back(col0 + static_cast<std::int64_t>(vn.src_ptr[v + 1] - s0));
          inv_deg.push_back(1.0f / static_cast<float>(vn.deg_total[v]));
        }
        for (std::size_t v = pr.first; v < pr.last; ++v) {
          if (vn.self_node[v] == kInvalidNode) continue;
          st.self_rows.push_back(pr.row + static_cast<std::int64_t>(v - pr.first));
          self_gather.push_back(static_cast<std::int64_t>(gather_nodes.size()));
          gather_nodes.push_back(vn.self_node[v]);
        }
        const std::int64_t num_self =
            static_cast<std::int64_t>(st.self_rows.size()) - st.self_seg.back();
        st.self_seg.push_back(static_cast<std::int64_t>(st.self_rows.size()));
        flops += 2.0 * static_cast<double>(s1 - s0) * d +
                 2.0 * static_cast<double>(pr.items()) * d * sage.out_dim() +
                 2.0 * static_cast<double>(num_self) * d * sage.out_dim();
      }
      Tensor h_all(static_cast<std::int64_t>(gather_nodes.size()), d);
      if (!gather_nodes.empty()) ctx_->store->Gather(g, gather_nodes, 0, d, h_all);

      // Partial mean: sum local sources / total degree.
      st.aggd = Tensor(routing.Rows(g), d);
      SpmmSum(CsrView{indptr, col}, h_all, st.aggd);
      for (std::int64_t r = 0; r < st.aggd.rows(); ++r) {
        const float inv = inv_deg[static_cast<std::size_t>(r)];
        float* row = st.aggd.row(r);
        for (std::int64_t j = 0; j < d; ++j) row[j] *= inv;
      }
      st.part = Tensor(st.aggd.rows(), out);
      Matmul(st.aggd, sage.w_neigh().value, st.part);
      // Self terms for destinations owned here.
      st.self_h = Tensor(static_cast<std::int64_t>(self_gather.size()), d);
      if (!self_gather.empty()) {
        GatherRows(h_all, self_gather, st.self_h);
        Tensor self_out(st.self_h.rows(), out);
        Matmul(st.self_h, sage.w_self().value, self_out);
        ScatterAddRows(self_out, st.self_rows, st.part);
      }
      ctx_->sim->ChargeCompute(g, flops);
      ctx_->sim->NoteTransient(g, h_all.bytes() + st.part.bytes());
    }
  }

  // ---- Reshuffle: GroupReduce partials at the requesting devices. --------
  // Each origin adds its partials owner by owner, ascending.
  stage.Next("reshuffle");
  std::vector<Tensor> raw0(static_cast<std::size_t>(c));
  for (DeviceId o = 0; o < c; ++o) {
    Tensor& r0 = raw0[static_cast<std::size_t>(o)];
    r0 = Tensor(batches[static_cast<std::size_t>(o)].sample.blocks[0].num_dst, out);
    for (const RoutePair& pr : routing.OfOrigin(o)) {
      AddRowsAt(owners[static_cast<std::size_t>(pr.owner)].part, pr.row, pr.Of(vn.dst_local), r0);
    }
  }
  ctx_->comm->ChargeAllToAll(routing.RowTraffic(*ctx_->comm, out, /*to_owners=*/false),
                             Phase::kTrain);
  for (SnpOwnerRows& st : owners) st.part = Tensor();

  // ---- Remainder of the model at each origin. -----------------------------
  stage.Next("execute");
  std::vector<Tensor> grad_raw0(static_cast<std::size_t>(c));
  for (DeviceId o = 0; o < c; ++o) {
    DeviceBatch& batch = batches[static_cast<std::size_t>(o)];
    if (batch.labels.empty()) continue;
    auto& sage = dynamic_cast<SageLayer&>(ctx_->model(o).layer(0));
    Tensor& r0 = raw0[static_cast<std::size_t>(o)];
    AddBiasRows(r0, sage.bias().value);
    const auto& blocks = batch.sample.blocks;
    ModelTape tape;
    const Tensor logits = ctx_->model(o).ForwardFrom(1, blocks, r0, &tape);
    Tensor grad_logits;
    const StepStats s = SeedLossAndGrad(*ctx_, o, batch, logits, total_seeds, grad_logits);
    grad_raw0[static_cast<std::size_t>(o)] =
        ctx_->model(o).BackwardTo(1, blocks, tape, grad_logits);
    Tensor gb(1, sage.out_dim());
    BiasGradRows(grad_raw0[static_cast<std::size_t>(o)], gb);
    Axpy(1.0f, gb, sage.bias().grad);
    ChargeStepCompute(*ctx_, o, blocks, 1);
    agg.loss += s.loss;
    agg.correct += s.correct;
  }

  // ---- Backward shuffle: destination grads back to partial computers. ----
  // An origin with virtual nodes has seeds, hence a layer-0 gradient.
  stage.Next("reshuffle");
  std::vector<Tensor> grad_rows(static_cast<std::size_t>(c));
  for (DeviceId g = 0; g < c; ++g) {
    Tensor& grows = grad_rows[static_cast<std::size_t>(g)];
    grows = Tensor(routing.Rows(g), out);
    for (std::size_t p : routing.OfOwner(g)) {
      const RoutePair& pr = routing.pairs[p];
      const Tensor& src = grad_raw0[static_cast<std::size_t>(pr.origin)];
      APT_CHECK_GT(src.rows(), 0);
      CopyRowsTo(src, pr.Of(vn.dst_local), grows, pr.row);
    }
  }
  ctx_->comm->ChargeAllToAll(routing.RowTraffic(*ctx_->comm, out, /*to_owners=*/true),
                             Phase::kTrain);

  // ---- Weight gradients at the partial computers. -------------------------
  // One segmented GEMM per weight folds in the pairs' row blocks origin by
  // origin, the order per-pair GEMMs accumulated them in.
  stage.Next("execute");
  for (DeviceId g = 0; g < c; ++g) {
    auto& sage = dynamic_cast<SageLayer&>(ctx_->model(g).layer(0));
    const SnpOwnerRows& st = owners[static_cast<std::size_t>(g)];
    const Tensor& grows = grad_rows[static_cast<std::size_t>(g)];
    SegmentedMatmulTN(st.aggd, grows, routing.Segments(g), sage.w_neigh().grad, 1.0f, 1.0f);
    if (st.self_h.rows() > 0) {
      Tensor gsel(st.self_h.rows(), grows.cols());
      GatherRows(grows, st.self_rows, gsel);
      SegmentedMatmulTN(st.self_h, gsel, st.self_seg, sage.w_self().grad, 1.0f, 1.0f);
    }
    ctx_->sim->ChargeCompute(g, PairFlops(routing, g, [&](const RoutePair& pr) {
                               return 4.0 * static_cast<double>(pr.items()) * d * sage.out_dim();
                             }));
  }
  return agg;
}

StepStats SnpExecutor::StepGat(std::vector<DeviceBatch>& batches) {
  const std::int32_t c = ctx_->num_devices();
  const std::int64_t d = ctx_->feature_dim();
  std::int64_t total_seeds = 0;
  for (const auto& b : batches) total_seeds += static_cast<std::int64_t>(b.labels.size());
  StepStats agg;
  agg.num_seeds = total_seeds;

  // ---- Permute: every layer-1 source node's z row is requested from its
  // owner (one request per (origin, owner) pair, in source order). ---------
  obs::StageSpan stage("permute", "snp");
  PairRouting routing;
  std::vector<NodeId> req_nodes;      ///< requested node per item
  std::vector<std::int64_t> req_pos;  ///< its row in the origin's z tensor
  {
    OwnerBuckets buckets(c);
    std::vector<DeviceId> src_owner;
    std::size_t num_req = 0, no_extra = 0;
    for (DeviceId o = 0; o < c; ++o) {
      const Block& b = batches[static_cast<std::size_t>(o)].sample.blocks[0];
      src_owner.resize(static_cast<std::size_t>(b.num_src()));
      for (std::int64_t i = 0; i < b.num_src(); ++i) {
        const DeviceId g = RouteOwner(o, b.src_nodes[static_cast<std::size_t>(i)]);
        src_owner[static_cast<std::size_t>(i)] = g;
        buckets.Count(g);
      }
      buckets.Layout(o, num_req, no_extra, routing);
      req_nodes.resize(num_req);
      req_pos.resize(num_req);
      for (std::int64_t i = 0; i < b.num_src(); ++i) {
        const std::size_t slot =
            buckets.next[static_cast<std::size_t>(src_owner[static_cast<std::size_t>(i)])]++;
        req_nodes[slot] = b.src_nodes[static_cast<std::size_t>(i)];
        req_pos[slot] = i;
      }
    }
    routing.IndexOwners(c);
  }
  stage.Next("shuffle");
  ctx_->comm->ChargeAllToAll(routing.Traffic(/*to_owners=*/true,
                                             [](const RoutePair& pr) {
                                               return std::pair<std::int64_t, std::int64_t>(
                                                   pr.items() * 8, pr.items() * 8);
                                             }),
                             Phase::kSample);

  // ---- Execute at owners: load features, project, ship z rows. ------------
  // One batched gather per device per step; each origin's requests are one
  // contiguous row range of it, and the owner projects all rows at once.
  stage.Next("execute");
  std::vector<Tensor> saved_h(static_cast<std::size_t>(c));
  std::vector<Tensor> z_rows(static_cast<std::size_t>(c));
  const std::int64_t out = ctx_->model(0).layer(0).out_dim();
  {
    std::vector<NodeId> gather_nodes;
    for (DeviceId g = 0; g < c; ++g) {
      auto& gat = dynamic_cast<GatLayer&>(ctx_->model(g).layer(0));
      gather_nodes.clear();
      std::int64_t transient = 0;
      for (std::size_t p : routing.OfOwner(g)) {
        const RoutePair& pr = routing.pairs[p];
        const std::span<const NodeId> nodes = pr.Of(req_nodes);
        gather_nodes.insert(gather_nodes.end(), nodes.begin(), nodes.end());
        transient += pr.items() * d * 4 + pr.items() * gat.out_dim() * 4;  // h + z
      }
      Tensor& h = saved_h[static_cast<std::size_t>(g)];
      h = Tensor(static_cast<std::int64_t>(gather_nodes.size()), d);
      if (!gather_nodes.empty()) ctx_->store->Gather(g, gather_nodes, 0, d, h);
      z_rows[static_cast<std::size_t>(g)] = gat.Project(h);
      ctx_->sim->ChargeCompute(g, PairFlops(routing, g, [&](const RoutePair& pr) {
                                 return 2.0 * static_cast<double>(pr.items()) * d * gat.out_dim();
                               }));
      ctx_->sim->NoteTransient(g, h.bytes() + transient);
    }
  }
  // Hidden-embedding shuffle (the GAT extra communication).
  stage.Next("reshuffle");
  ctx_->comm->ChargeAllToAll(routing.RowTraffic(*ctx_->comm, out, /*to_owners=*/false),
                             Phase::kTrain);

  // ---- Attention + remainder at origins. -----------------------------------
  stage.Next("execute");
  std::vector<Tensor> grad_z_full(static_cast<std::size_t>(c));
  for (DeviceId o = 0; o < c; ++o) {
    DeviceBatch& batch = batches[static_cast<std::size_t>(o)];
    if (batch.labels.empty()) continue;
    auto& gat = dynamic_cast<GatLayer&>(ctx_->model(o).layer(0));
    const Block& b = batch.sample.blocks[0];
    Tensor z(b.num_src(), gat.out_dim());
    for (const RoutePair& pr : routing.OfOrigin(o)) {
      CopyRowsFrom(z_rows[static_cast<std::size_t>(pr.owner)], pr.row, pr.Of(req_pos), z);
    }
    std::unique_ptr<GatAttentionContext> attn_ctx;
    const Tensor raw0 = gat.AttentionForward(b.csr(), b.num_dst, z, &attn_ctx);
    const auto& blocks = batch.sample.blocks;
    ModelTape tape;
    const Tensor logits = ctx_->model(o).ForwardFrom(1, blocks, raw0, &tape);
    Tensor grad_logits;
    const StepStats s = SeedLossAndGrad(*ctx_, o, batch, logits, total_seeds, grad_logits);
    const Tensor grad_raw0 = ctx_->model(o).BackwardTo(1, blocks, tape, grad_logits);
    grad_z_full[static_cast<std::size_t>(o)] =
        gat.AttentionBackward(b.csr(), b.num_dst, *attn_ctx, grad_raw0);
    ChargeStepCompute(*ctx_, o, blocks, 1);
    ctx_->sim->ChargeCompute(
        o, gat.ForwardFlops(b.num_src(), b.num_dst, b.num_edges()));
    agg.loss += s.loss;
    agg.correct += s.correct;
  }
  z_rows.clear();

  // ---- Backward: grad_z rows return to the owners. -------------------------
  // An origin with requests has seeds, hence a z gradient.
  stage.Next("reshuffle");
  std::vector<Tensor> gz_rows(static_cast<std::size_t>(c));
  for (DeviceId g = 0; g < c; ++g) {
    Tensor& rows = gz_rows[static_cast<std::size_t>(g)];
    rows = Tensor(routing.Rows(g), out);
    for (std::size_t p : routing.OfOwner(g)) {
      const RoutePair& pr = routing.pairs[p];
      const Tensor& gz = grad_z_full[static_cast<std::size_t>(pr.origin)];
      APT_CHECK_GT(gz.rows(), 0);
      CopyRowsTo(gz, pr.Of(req_pos), rows, pr.row);
    }
  }
  ctx_->comm->ChargeAllToAll(routing.RowTraffic(*ctx_->comm, out, /*to_owners=*/true),
                             Phase::kTrain);
  stage.Next("execute");
  for (DeviceId g = 0; g < c; ++g) {
    auto& gat = dynamic_cast<GatLayer&>(ctx_->model(g).layer(0));
    SegmentedMatmulTN(saved_h[static_cast<std::size_t>(g)], gz_rows[static_cast<std::size_t>(g)],
                      routing.Segments(g), gat.w().grad, 1.0f, 1.0f);
    ctx_->sim->ChargeCompute(g, PairFlops(routing, g, [&](const RoutePair& pr) {
                               return 2.0 * static_cast<double>(pr.items()) * d * gat.out_dim();
                             }));
  }
  return agg;
}

}  // namespace

std::unique_ptr<StrategyExecutor> MakeSnpExecutor(EngineCtx& ctx) {
  return std::make_unique<SnpExecutor>(ctx, ctx.opts.hybrid_intra_machine);
}

}  // namespace apt
