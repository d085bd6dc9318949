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

class SnpExecutor final : public StrategyExecutor {
 public:
  /// `machine_local` enables the HYBRID routing the paper's conclusion
  /// proposes as future work (NodeRouter): sources whose owner sits on
  /// ANOTHER machine are processed by the requesting device itself
  /// (GDP-style); SNP routing applies only between devices of one machine.
  SnpExecutor(EngineCtx& ctx, bool machine_local)
      : StrategyExecutor(ctx),
        route_{ctx.partition, machine_local ? &ctx.sim->cluster() : nullptr} {}

  StepStats Step(std::vector<DeviceBatch>& batches) override {
    const bool gat = ctx_->model_kind() == ModelKind::kGat;
    // ---- Permute: split each origin's layer-1 graph by owner. Under SAGE a
    // destination gets one virtual node on every owner of one of its sources
    // and on its own owner (which adds the self term); under GAT every
    // layer-1 source node's z row is requested from its owner. The owners
    // read their records in place (the graph shuffle). ----------------------
    obs::StageSpan stage("permute", "snp");
    const RoutePlan plan =
        gat ? BuildSnpGatPlan(batches, route_) : BuildSnpSagePlan(batches, route_);
    stage.Next("execute");
    std::vector<StepLoad> loads(batches.size());
    const StepStats agg =
        gat ? StepGat(batches, plan, loads, stage) : StepSage(batches, plan, loads, stage);
    CommitCharges(*ctx_, SnpCharges(ctx_->model(0), batches, plan, loads,
                                    ctx_->comm->wire_codec()));
    return agg;
  }

 private:
  /// The owners' layer 0, the reshuffles and the origins' remainder; fills `loads`.
  StepStats StepSage(std::vector<DeviceBatch>& batches, const RoutePlan& plan,
                     std::vector<StepLoad>& loads, obs::StageSpan& stage);
  StepStats StepGat(std::vector<DeviceBatch>& batches, const RoutePlan& plan,
                    std::vector<StepLoad>& loads, obs::StageSpan& stage);

  NodeRouter route_;
};

/// One owner's layer-0 state over its row block (all of its virtual nodes).
struct SnpOwnerRows {
  Tensor aggd;    ///< partial means, one row per virtual node
  Tensor self_h;  ///< features of the destinations owned here
  Tensor part;    ///< partial layer-0 outputs
  std::vector<std::int64_t> self_rows;  ///< rows with a self term
  std::vector<std::int64_t> self_seg;   ///< per-pair boundaries of self_rows
};

StepStats SnpExecutor::StepSage(std::vector<DeviceBatch>& batches, const RoutePlan& plan,
                                std::vector<StepLoad>& loads, obs::StageSpan& stage) {
  const std::int32_t c = ctx_->num_devices();
  StepStats agg = StepSeeds(batches);
  const PairRouting& routing = plan.routing;

  // ---- Execute: partial aggregation + projection at each owner. ----------
  // One batched feature gather per device per step (DGL-style): each
  // origin's unique sources, then its owned destinations' self rows, origin
  // after origin, fetched in a single store request.
  const std::int64_t d = ctx_->feature_dim();
  const std::int64_t out = ctx_->model(0).layer(0).out_dim();
  std::vector<SnpOwnerRows> owners(static_cast<std::size_t>(c));
  {
    NodeRowTable table;
    SnpOwnerInputs in;
    for (DeviceId g = 0; g < c; ++g) {
      auto& sage = dynamic_cast<SageLayer&>(ctx_->model(g).layer(0));
      SnpOwnerRows& st = owners[static_cast<std::size_t>(g)];
      loads[static_cast<std::size_t>(g)] =
          SnpLoad(*ctx_->store, plan, g, /*gat=*/false, out, table, in);
      Tensor h_all = Tensor::Uninit(static_cast<std::int64_t>(in.gather.size()), d);
      ctx_->store->Read(in.gather, 0, d, h_all);

      // Partial mean: sum local sources / total degree.
      st.aggd = Tensor::Uninit(routing.Rows(g), d);
      SpmmSum(CsrView{in.indptr, in.col}, h_all, st.aggd);
      for (std::int64_t r = 0; r < st.aggd.rows(); ++r) {
        const float inv = in.inv_deg[static_cast<std::size_t>(r)];
        float* row = st.aggd.row(r);
        for (std::int64_t j = 0; j < d; ++j) row[j] *= inv;
      }
      st.part = Tensor::Uninit(st.aggd.rows(), out);
      Matmul(st.aggd, sage.w_neigh().value, st.part);
      // Self terms for destinations owned here.
      st.self_rows = std::move(in.self_rows);
      st.self_seg = std::move(in.self_seg);
      st.self_h = Tensor::Uninit(static_cast<std::int64_t>(in.self_gather.size()), d);
      if (!in.self_gather.empty()) {
        GatherRows(h_all, in.self_gather, st.self_h);
        Tensor self_out = Tensor::Uninit(st.self_h.rows(), out);
        Matmul(st.self_h, sage.w_self().value, self_out);
        ScatterAddRows(self_out, st.self_rows, st.part);
      }
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
      AddRowsAt(owners[static_cast<std::size_t>(pr.owner)].part, pr.row, pr.Of(plan.local), r0);
    }
  }
  for (SnpOwnerRows& st : owners) st.part = Tensor();

  // ---- Remainder of the model at each origin. -----------------------------
  stage.Next("execute");
  std::vector<Tensor> grad_raw0(static_cast<std::size_t>(c));
  TrainDevicesInParallel(batches, agg, [&](DeviceId o, StepStats& stats) {
    const auto uo = static_cast<std::size_t>(o);
    const DeviceBatch& batch = batches[uo];
    auto& sage = dynamic_cast<SageLayer&>(ctx_->model(o).layer(0));
    AddBiasRows(raw0[uo], sage.bias().value);
    ModelTape tape;
    grad_raw0[uo] =
        TrainFrom(*ctx_, o, batch, 1, std::move(raw0[uo]), 1, agg.num_seeds, stats, tape);
    Tensor gb(1, sage.out_dim());
    BiasGradRows(grad_raw0[uo], gb);
    Axpy(1.0f, gb, sage.bias().grad);
  });

  // ---- Backward shuffle: destination grads back to partial computers. ----
  stage.Next("reshuffle");
  const std::vector<Tensor> grad_rows = RowsToOwners(plan, grad_raw0, out);

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
  }
  return agg;
}

StepStats SnpExecutor::StepGat(std::vector<DeviceBatch>& batches, const RoutePlan& plan,
                               std::vector<StepLoad>& loads, obs::StageSpan& stage) {
  const std::int32_t c = ctx_->num_devices();
  const std::int64_t d = ctx_->feature_dim();
  StepStats agg = StepSeeds(batches);
  const PairRouting& routing = plan.routing;

  // ---- Execute at owners: load features, project, ship z rows. ------------
  // One batched gather per device per step; each origin's requests are one
  // contiguous row range of it, and the owner projects all rows at once.
  std::vector<Tensor> saved_h(static_cast<std::size_t>(c));
  std::vector<Tensor> z_rows(static_cast<std::size_t>(c));
  const std::int64_t out = ctx_->model(0).layer(0).out_dim();
  {
    NodeRowTable table;
    SnpOwnerInputs in;
    for (DeviceId g = 0; g < c; ++g) {
      auto& gat = dynamic_cast<GatLayer&>(ctx_->model(g).layer(0));
      loads[static_cast<std::size_t>(g)] =
          SnpLoad(*ctx_->store, plan, g, /*gat=*/true, out, table, in);
      Tensor& h = saved_h[static_cast<std::size_t>(g)];
      h = Tensor::Uninit(static_cast<std::int64_t>(in.gather.size()), d);
      ctx_->store->Read(in.gather, 0, d, h);
      z_rows[static_cast<std::size_t>(g)] = gat.Project(h);
    }
  }
  // ---- Attention + remainder at origins, which read their z rows from the
  // owners in place (the hidden-embedding shuffle, GAT's extra traffic). ----
  std::vector<Tensor> grad_z_full(static_cast<std::size_t>(c));
  TrainDevicesInParallel(batches, agg, [&](DeviceId o, StepStats& stats) {
    const auto uo = static_cast<std::size_t>(o);
    const DeviceBatch& batch = batches[uo];
    auto& gat = dynamic_cast<GatLayer&>(ctx_->model(o).layer(0));
    const Block& b = batch.sample.blocks[0];
    Tensor z(b.num_src(), gat.out_dim());
    for (const RoutePair& pr : routing.OfOrigin(o)) {
      CopyRowsFrom(z_rows[static_cast<std::size_t>(pr.owner)], pr.row, pr.Of(plan.local), z);
    }
    std::unique_ptr<GatAttentionContext> attn_ctx;
    Tensor raw0 = gat.AttentionForward(b.csr(), b.num_dst, z, &attn_ctx);
    ModelTape tape;
    const Tensor grad_raw0 =
        TrainFrom(*ctx_, o, batch, 1, std::move(raw0), 1, agg.num_seeds, stats, tape);
    grad_z_full[uo] = gat.AttentionBackward(b.csr(), b.num_dst, *attn_ctx, grad_raw0);
  });
  z_rows.clear();

  // ---- Backward: grad_z rows return to the owners. -------------------------
  stage.Next("reshuffle");
  const std::vector<Tensor> gz_rows = RowsToOwners(plan, grad_z_full, out);
  stage.Next("execute");
  for (DeviceId g = 0; g < c; ++g) {
    auto& gat = dynamic_cast<GatLayer&>(ctx_->model(g).layer(0));
    SegmentedMatmulTN(saved_h[static_cast<std::size_t>(g)], gz_rows[static_cast<std::size_t>(g)],
                      routing.Segments(g), gat.w().grad, 1.0f, 1.0f);
  }
  return agg;
}

}  // namespace

std::unique_ptr<StrategyExecutor> MakeSnpExecutor(EngineCtx& ctx) {
  return std::make_unique<SnpExecutor>(ctx, ctx.opts.hybrid_intra_machine);
}

}  // namespace apt
