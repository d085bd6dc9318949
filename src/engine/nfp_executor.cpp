// Node feature parallel (P3-style): input features and the layer-1 weight
// are co-partitioned by dimension; every device receives every device's
// layer-1 computation graph (AllBroadcast), computes partial layer-1
// outputs from its dimension slice, and a SparseAllreduce merges them.
//
// Mean aggregation commutes with the linear projection, so
//   sum_g (agg(H[:, g]) W[g, :]) == agg(H) W,
// which is what makes the NFP result bit-for-bit semantically equal to GDP.
//
// GAT path: partial *projections* z are allreduced for all layer-1 source
// nodes (attention itself cannot be dimension-partitioned because softmax
// needs complete logits); backward broadcasts grad_z so each device can form
// its weight-slice gradient. This is the "extra communication" and
// "intermediate tensors exceed GPU memory" behaviour of Fig 10.
//
// The simulator charges every device's slice gather, flops and the c x c
// partials (transient memory and one ring allreduce per origin). The host
// never builds those partials. Each device gathers its columns straight into
// one full-width buffer; each origin is aggregated once at full width (the
// mean is element-wise, so its columns are the slice results); one fused
// GEMM per origin (SliceSumMatmul) forms each device's partial in an L1
// scratch and adds it into the origin's sum in device order; weight
// gradients take one full-width GEMM per origin. The broadcast graphs and
// gradients are read where they lie. All of it is bit-identical to the
// per-device formulation.
//
// Pipelined execution (EngineOptions::pipeline_depth > 1): the graph
// AllBroadcast, the dimension-slice feature gathers (kLoad) and the partial
// allreduce / grad broadcast all land on the per-device comm stream, so NFP
// — the comm-heaviest strategy — gains the most from overlap; only the
// projection/aggregation compute stays on the compute stream.
#include "engine/exec_common.h"
#include "engine/executor.h"
#include "engine/pair_routing.h"
#include "obs/trace.h"
#include "tensor/ops.h"
#include "tensor/segment_ops.h"

namespace apt {

namespace {

/// Adds rows [lo, hi) of `full` into the same rows of grad.
void AddRowBlock(Tensor& grad, const Tensor& full, std::int64_t lo, std::int64_t hi) {
  for (std::int64_t r = lo; r < hi; ++r) {
    float* dst = grad.row(r);
    const float* src = full.row(r);
    for (std::int64_t j = 0; j < full.cols(); ++j) dst[j] += src[j];
  }
}

/// Backward shuffle: every device reads every origin's layer-1 output
/// gradient in place to form its weight slice's gradient; charged as one
/// AllBroadcast of the gradients under the ring's wire codec.
void BroadcastGrads(EngineCtx& ctx, const std::vector<Tensor>& grads) {
  std::int64_t bytes = 0;
  std::int64_t wire = 0;
  for (const Tensor& g : grads) {
    bytes += g.bytes();
    wire += ctx.comm->RingWireBytes(g);
  }
  ctx.comm->ChargeAllBroadcast(bytes, wire, Phase::kTrain);
}

/// Layer-1 inputs of every origin, stacked in origin order at full width.
/// Device g gathers its columns [lo, hi) of the plan's sources in one batch,
/// straight into those columns, in device order. Right after its gather each
/// device is charged its slice's flops, slice_flops(b, hi - lo) summed over
/// the origins with destinations, and the plan's transient for its slice,
/// as if it kept its partials for the allreduce.
template <typename SliceFlops>
Tensor GatherSlices(EngineCtx& ctx, const NfpPlan& plan, std::span<const Block* const> all0,
                    std::int64_t out_dim, const SliceFlops& slice_flops) {
  Tensor h_all = Tensor::Uninit(plan.rows(), ctx.feature_dim());
  for (DeviceId g = 0; g < ctx.num_devices(); ++g) {
    const std::int64_t lo = plan.bounds[static_cast<std::size_t>(g)];
    const std::int64_t hi = plan.bounds[static_cast<std::size_t>(g) + 1];
    if (plan.rows() > 0) ctx.store->Gather(g, plan.sources, lo, hi, h_all, lo);
    double flops = 0.0;
    for (const Block* b : all0) {
      if (b->num_dst > 0) flops += slice_flops(*b, hi - lo);
    }
    ctx.sim->ChargeCompute(g, flops);
    ctx.sim->NoteTransient(g, plan.Transient(hi - lo, out_dim));
  }
  return h_all;
}

/// Origin o's rows of a saved layer-1 input: rows [row0, row0 + n) of *t.
struct SavedRows {
  const Tensor* t;
  std::int64_t row0;
};

/// Layer-1 weight gradients of the dimension slices. For each of the
/// num_saved inputs k one full-width GEMM per origin forms
/// saved_of(k, o)^T grads[o]; device g adds its row block [lo, hi) into
/// grad_of(g, k), origin after origin. Each device is then charged its
/// slices' flops, in device order.
template <typename SavedOf, typename GradOf>
void SliceWeightGrads(EngineCtx& ctx, const std::vector<Tensor>& grads,
                      const std::vector<std::int64_t>& bounds, std::size_t num_saved,
                      const SavedOf& saved_of, const GradOf& grad_of) {
  const auto c = static_cast<std::size_t>(ctx.num_devices());
  const std::int64_t out_dim = ctx.model(0).layer(0).out_dim();
  const double gemm_flops = 2.0 * static_cast<double>(num_saved);
  std::vector<double> flops(c, 0.0);
  Tensor gw(ctx.feature_dim(), out_dim);
  for (std::size_t o = 0; o < grads.size(); ++o) {
    const Tensor& go = grads[o];
    if (go.rows() == 0) continue;
    for (std::size_t k = 0; k < num_saved; ++k) {
      const SavedRows saved = saved_of(k, o);
      MatmulTN(*saved.t, saved.row0, go, gw);
      for (std::size_t g = 0; g < c; ++g) {
        AddRowBlock(grad_of(static_cast<DeviceId>(g), k), gw, bounds[g], bounds[g + 1]);
      }
    }
    for (std::size_t g = 0; g < c; ++g) {
      flops[g] += gemm_flops * static_cast<double>(go.rows()) * (bounds[g + 1] - bounds[g]) *
                  out_dim;
    }
  }
  for (std::size_t g = 0; g < c; ++g) ctx.sim->ChargeCompute(static_cast<DeviceId>(g), flops[g]);
}

class NfpExecutor final : public StrategyExecutor {
 public:
  using StrategyExecutor::StrategyExecutor;

  StepStats Step(std::vector<DeviceBatch>& batches) override {
    StepStats agg;
    for (const auto& b : batches) agg.num_seeds += static_cast<std::int64_t>(b.labels.size());
    const bool gat = ctx_->model_kind() == ModelKind::kGat;
    obs::StageSpan stage("shuffle", "nfp");
    const std::vector<const Block*> all0 = FirstBlocks(batches);
    const NfpPlan plan = BuildNfpPlan(all0, ctx_->feature_dim(), gat);
    // Every device reads every origin's layer-1 graph in place.
    ctx_->comm->ChargeAllBroadcast(plan.graph_bytes, plan.graph_bytes, Phase::kSample);
    stage.Next("execute");
    return gat ? StepGat(batches, all0, plan, stage, agg)
               : StepSage(batches, all0, plan, stage, agg);
  }

 private:
  // From Execute on. `agg` arrives with num_seeds set; the step adds loss and correct.
  StepStats StepSage(std::vector<DeviceBatch>& batches, std::span<const Block* const> all0,
                     const NfpPlan& plan, obs::StageSpan& stage, StepStats agg);
  StepStats StepGat(std::vector<DeviceBatch>& batches, std::span<const Block* const> all0,
                    const NfpPlan& plan, obs::StageSpan& stage, StepStats agg);
};

StepStats NfpExecutor::StepSage(std::vector<DeviceBatch>& batches,
                                std::span<const Block* const> all0, const NfpPlan& plan,
                                obs::StageSpan& stage, StepStats agg) {
  const std::int32_t c = ctx_->num_devices();
  const std::int64_t d = ctx_->feature_dim();
  const auto uc = static_cast<std::size_t>(c);

  // Execute: each device gathers its dimension slice of ALL graphs' inputs.
  // The host then aggregates each origin at full width and sums the c slice
  // partials with one fused GEMM per origin: saved_agg[o] and the self rows
  // in h_all feed the weight-gradient pass.
  const std::int64_t out = ctx_->model(0).layer(0).out_dim();
  const Tensor h_all =
      GatherSlices(*ctx_, plan, all0, out, [out](const Block& b, std::int64_t w) {
        return 4.0 * static_cast<double>(b.num_dst) * w * out +
               2.0 * static_cast<double>(b.num_edges()) * w;
      });
  std::vector<const Tensor*> w_neigh(uc), w_self(uc);
  for (DeviceId g = 0; g < c; ++g) {
    auto& sage = dynamic_cast<SageLayer&>(ctx_->model(g).layer(0));
    w_neigh[static_cast<std::size_t>(g)] = &sage.w_neigh().value;
    w_self[static_cast<std::size_t>(g)] = &sage.w_self().value;
  }
  std::vector<Tensor> saved_agg(uc), raw0(uc);
  for (std::size_t o = 0; o < uc; ++o) {
    const Block& b = *all0[o];
    if (b.num_dst == 0) continue;
    saved_agg[o] = Tensor::Uninit(b.num_dst, d);
    SpmmMean(b.csr(), h_all, plan.first[o], saved_agg[o]);
    raw0[o] = Tensor::Uninit(b.num_dst, out);
    const SliceTerm terms[] = {{&saved_agg[o], 0, w_neigh}, {&h_all, plan.first[o], w_self}};
    SliceSumMatmul(terms, plan.bounds, raw0[o]);
  }

  stage.Next("reshuffle");
  // Reshuffle (forward): SparseAllreduce per origin; raw0 already holds the sums.
  for (std::size_t o = 0; o < uc; ++o) {
    if (all0[o]->num_dst > 0) {
      ctx_->comm->ChargeAllReduce(raw0[o].bytes(), ctx_->comm->RingWireBytes(raw0[o]),
                                  Phase::kTrain);
    }
  }

  stage.Next("execute");
  // Local remainder per origin + loss + backward to the layer-1 boundary.
  std::vector<Tensor> grad_raw0(uc);
  for (DeviceId o = 0; o < c; ++o) {
    DeviceBatch& batch = batches[static_cast<std::size_t>(o)];
    if (batch.labels.empty()) continue;
    auto& sage = dynamic_cast<SageLayer&>(ctx_->model(o).layer(0));
    Tensor& r0 = raw0[static_cast<std::size_t>(o)];
    AddBiasRows(r0, sage.bias().value);  // bias applied once, post-reduce
    grad_raw0[static_cast<std::size_t>(o)] =
        TrainFromLayer1(*ctx_, o, batch, std::move(r0), agg.num_seeds, agg);
    Tensor gb(1, sage.out_dim());
    BiasGradRows(grad_raw0[static_cast<std::size_t>(o)], gb);
    Axpy(1.0f, gb, sage.bias().grad);
  }

  stage.Next("reshuffle");
  BroadcastGrads(*ctx_, grad_raw0);

  stage.Next("execute");
  SliceWeightGrads(
      *ctx_, grad_raw0, plan.bounds, 2,
      [&](std::size_t k, std::size_t o) {
        return k == 0 ? SavedRows{&saved_agg[o], 0} : SavedRows{&h_all, plan.first[o]};
      },
      [&](DeviceId g, std::size_t k) -> Tensor& {
        auto& sage = dynamic_cast<SageLayer&>(ctx_->model(g).layer(0));
        return k == 0 ? sage.w_neigh().grad : sage.w_self().grad;
      });
  return agg;
}

StepStats NfpExecutor::StepGat(std::vector<DeviceBatch>& batches,
                               std::span<const Block* const> all0, const NfpPlan& plan,
                               obs::StageSpan& stage, StepStats agg) {
  const std::int32_t c = ctx_->num_devices();
  const auto uc = static_cast<std::size_t>(c);

  // Partial projections z from each dimension slice, for all graphs. Every
  // device holds z for EVERY graph's full source set: the memory blowup the
  // paper observes for NFP + attention at large hidden dims. The host sums
  // the c slice partials with one fused GEMM per origin; h_all keeps the
  // full-width sources for the weight-gradient pass.
  const std::int64_t out = ctx_->model(0).layer(0).out_dim();
  const Tensor h_all =
      GatherSlices(*ctx_, plan, all0, out, [out](const Block& b, std::int64_t w) {
        return 2.0 * static_cast<double>(b.num_src()) * w * out;
      });
  std::vector<const Tensor*> w(uc);
  for (DeviceId g = 0; g < c; ++g) {
    w[static_cast<std::size_t>(g)] =
        &dynamic_cast<GatLayer&>(ctx_->model(g).layer(0)).w().value;
  }
  std::vector<Tensor> z_full(uc);
  for (std::size_t o = 0; o < uc; ++o) {
    if (all0[o]->num_dst == 0) continue;
    z_full[o] = Tensor(all0[o]->num_src(), out);
    const SliceTerm term{&h_all, plan.first[o], w};
    SliceSumMatmul({&term, 1}, plan.bounds, z_full[o]);
  }

  stage.Next("reshuffle");
  // Allreduce partial projections per origin; z_full already holds the sums.
  for (std::size_t o = 0; o < uc; ++o) {
    if (all0[o]->num_dst > 0) {
      ctx_->comm->ChargeAllReduce(z_full[o].bytes(), ctx_->comm->RingWireBytes(z_full[o]),
                                  Phase::kTrain);
    }
  }

  stage.Next("execute");
  // Attention + remainder at each origin.
  std::vector<Tensor> grad_z(uc);
  for (DeviceId o = 0; o < c; ++o) {
    DeviceBatch& batch = batches[static_cast<std::size_t>(o)];
    if (batch.labels.empty()) continue;
    auto& gat = dynamic_cast<GatLayer&>(ctx_->model(o).layer(0));
    const Block& b = batch.sample.blocks[0];
    std::unique_ptr<GatAttentionContext> attn_ctx;
    Tensor raw0 = gat.AttentionForward(b.csr(), b.num_dst,
                                       z_full[static_cast<std::size_t>(o)], &attn_ctx);
    const Tensor grad_raw0 = TrainFromLayer1(*ctx_, o, batch, std::move(raw0), agg.num_seeds, agg);
    grad_z[static_cast<std::size_t>(o)] =
        gat.AttentionBackward(b.csr(), b.num_dst, *attn_ctx, grad_raw0);
    ctx_->sim->ChargeCompute(
        o, gat.ForwardFlops(b.num_src(), b.num_dst, b.num_edges()));
  }

  stage.Next("reshuffle");
  BroadcastGrads(*ctx_, grad_z);
  stage.Next("execute");
  SliceWeightGrads(
      *ctx_, grad_z, plan.bounds, 1,
      [&](std::size_t, std::size_t o) { return SavedRows{&h_all, plan.first[o]}; },
      [&](DeviceId g, std::size_t) -> Tensor& {
        return dynamic_cast<GatLayer&>(ctx_->model(g).layer(0)).w().grad;
      });
  return agg;
}

}  // namespace

std::unique_ptr<StrategyExecutor> MakeNfpExecutor(EngineCtx& ctx) {
  return std::make_unique<NfpExecutor>(ctx);
}

}  // namespace apt
