// Node feature parallel (P3-style): input features and the layer-1 weight
// are co-partitioned by dimension; every device receives every device's
// layer-1 computation graph (AllBroadcast), computes partial layer-1
// outputs from its dimension slice, and a SparseAllreduce merges them.
//
// Mean aggregation commutes with the linear projection, so
//   sum_g (agg(H[:, g]) W[g, :]) == agg(H) W,
// which is what makes the NFP result equal to GDP's.
//
// GAT path: partial *projections* z are allreduced for all layer-1 source
// nodes (attention itself cannot be dimension-partitioned because softmax
// needs complete logits); backward broadcasts grad_z so each device can form
// its weight-slice gradient. This is the "extra communication" and
// "intermediate tensors exceed GPU memory" behaviour of Fig 10.
//
// The per-device split lives in the charges only. The simulator charges
// every device's slice gather, flops and the c x c partials (transient
// memory and one ring allreduce per origin); the host never builds those
// partials. Each device gathers its columns straight into one full-width
// buffer, and each origin's layer 0 then runs the model's own kernels on its
// rows of that buffer, read in place: forward, and weight gradients
// accumulated into the origin's replica. The gradient allreduce therefore
// sums what GDP sums, and NFP trains GDP's bits.
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

/// Charges each device, in device order, the flops of its slices of the
/// layer-1 weight gradients: num_saved GEMMs of every origin's gradient
/// rows against the device's columns.
void ChargeSliceWeightGrads(EngineCtx& ctx, const std::vector<Tensor>& grads,
                            const std::vector<std::int64_t>& bounds, std::size_t num_saved) {
  const auto c = static_cast<std::size_t>(ctx.num_devices());
  const std::int64_t out_dim = ctx.model(0).layer(0).out_dim();
  const double gemm_flops = 2.0 * static_cast<double>(num_saved);
  std::vector<double> flops(c, 0.0);
  for (const Tensor& go : grads) {
    if (go.rows() == 0) continue;
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
  // The host then runs each origin's layer 0 as SageLayer::Forward does, on
  // the origin's rows of h_all: saved_agg[o] and those rows feed the
  // weight gradients.
  const std::int64_t out = ctx_->model(0).layer(0).out_dim();
  const Tensor h_all =
      GatherSlices(*ctx_, plan, all0, out, [out](const Block& b, std::int64_t w) {
        return 4.0 * static_cast<double>(b.num_dst) * w * out +
               2.0 * static_cast<double>(b.num_edges()) * w;
      });
  std::vector<Tensor> saved_agg(uc), raw0(uc);
  for (std::size_t o = 0; o < uc; ++o) {
    const Block& b = *all0[o];
    if (b.num_dst == 0) continue;
    auto& sage = dynamic_cast<SageLayer&>(ctx_->model(static_cast<DeviceId>(o)).layer(0));
    saved_agg[o] = Tensor::Uninit(b.num_dst, d);
    SpmmMean(b.csr(), h_all, plan.first[o], saved_agg[o]);
    raw0[o] = Tensor::Uninit(b.num_dst, out);
    Matmul(h_all, plan.first[o], sage.w_self().value, raw0[o]);
    Matmul(saved_agg[o], sage.w_neigh().value, raw0[o], 1.0f, 1.0f);
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
  // Local remainder per origin + loss + backward through layer 0, whose
  // gradients land in the origin's replica as SageLayer::Backward puts them.
  std::vector<Tensor> grad_raw0(uc);
  for (DeviceId o = 0; o < c; ++o) {
    const auto uo = static_cast<std::size_t>(o);
    DeviceBatch& batch = batches[uo];
    if (batch.labels.empty()) continue;
    auto& sage = dynamic_cast<SageLayer&>(ctx_->model(o).layer(0));
    Tensor& r0 = raw0[uo];
    AddBiasRows(r0, sage.bias().value);  // bias applied once, post-reduce
    grad_raw0[uo] = TrainFromLayer1(*ctx_, o, batch, std::move(r0), agg.num_seeds, agg);
    const Tensor& g = grad_raw0[uo];
    MatmulTN(h_all, plan.first[uo], g, sage.w_self().grad, 1.0f, 1.0f);
    MatmulTN(saved_agg[uo], g, sage.w_neigh().grad, 1.0f, 1.0f);
    Tensor gb(1, sage.out_dim());
    BiasGradRows(g, gb);
    Axpy(1.0f, gb, sage.bias().grad);
  }

  stage.Next("reshuffle");
  BroadcastGrads(*ctx_, grad_raw0);

  stage.Next("execute");
  ChargeSliceWeightGrads(*ctx_, grad_raw0, plan.bounds, 2);
  return agg;
}

StepStats NfpExecutor::StepGat(std::vector<DeviceBatch>& batches,
                               std::span<const Block* const> all0, const NfpPlan& plan,
                               obs::StageSpan& stage, StepStats agg) {
  const std::int32_t c = ctx_->num_devices();
  const auto uc = static_cast<std::size_t>(c);

  // Partial projections z from each dimension slice, for all graphs. Every
  // device holds z for EVERY graph's full source set: the memory blowup the
  // paper observes for NFP + attention at large hidden dims. The host
  // projects each origin as GatLayer::Project does, on the origin's rows of
  // h_all, which also feed the weight gradient.
  const std::int64_t out = ctx_->model(0).layer(0).out_dim();
  const Tensor h_all =
      GatherSlices(*ctx_, plan, all0, out, [out](const Block& b, std::int64_t w) {
        return 2.0 * static_cast<double>(b.num_src()) * w * out;
      });
  std::vector<Tensor> z_full(uc);
  for (std::size_t o = 0; o < uc; ++o) {
    if (all0[o]->num_dst == 0) continue;
    auto& gat = dynamic_cast<GatLayer&>(ctx_->model(static_cast<DeviceId>(o)).layer(0));
    z_full[o] = Tensor(all0[o]->num_src(), out);
    Matmul(h_all, plan.first[o], gat.w().value, z_full[o]);
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
  // Attention + remainder at each origin; the weight gradient lands in the
  // origin's replica as GatLayer::ProjectBackward puts it.
  std::vector<Tensor> grad_z(uc);
  for (DeviceId o = 0; o < c; ++o) {
    const auto uo = static_cast<std::size_t>(o);
    DeviceBatch& batch = batches[uo];
    if (batch.labels.empty()) continue;
    auto& gat = dynamic_cast<GatLayer&>(ctx_->model(o).layer(0));
    const Block& b = batch.sample.blocks[0];
    std::unique_ptr<GatAttentionContext> attn_ctx;
    Tensor raw0 = gat.AttentionForward(b.csr(), b.num_dst, z_full[uo], &attn_ctx);
    const Tensor grad_raw0 = TrainFromLayer1(*ctx_, o, batch, std::move(raw0), agg.num_seeds, agg);
    grad_z[uo] = gat.AttentionBackward(b.csr(), b.num_dst, *attn_ctx, grad_raw0);
    MatmulTN(h_all, plan.first[uo], grad_z[uo], gat.w().grad, 1.0f, 1.0f);
    ctx_->sim->ChargeCompute(
        o, gat.ForwardFlops(b.num_src(), b.num_dst, b.num_edges()));
  }

  stage.Next("reshuffle");
  BroadcastGrads(*ctx_, grad_z);
  stage.Next("execute");
  ChargeSliceWeightGrads(*ctx_, grad_z, plan.bounds, 1);
  return agg;
}

}  // namespace

std::unique_ptr<StrategyExecutor> MakeNfpExecutor(EngineCtx& ctx) {
  return std::make_unique<NfpExecutor>(ctx);
}

}  // namespace apt
