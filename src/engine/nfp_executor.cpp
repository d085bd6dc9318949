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
// The simulator charges the c x c partials (transient memory and one ring
// allreduce per origin); the host adds each partial into its origin's sum in
// device order, the Axpy sequence AllReduceSum runs, and forms weight
// gradients with one full-width GEMM per origin. Both are bit-identical.
//
// Pipelined execution (EngineOptions::pipeline_depth > 1): the graph
// AllBroadcast, the dimension-slice feature gathers (kLoad) and the partial
// allreduce / grad broadcast all land on the per-device comm stream, so NFP
// — the comm-heaviest strategy — gains the most from overlap; only the
// projection/aggregation compute stays on the compute stream.
#include "engine/exec_common.h"
#include "engine/executor.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace apt {

namespace {

/// Row range [lo, hi) of the feature dimension owned by dev.
std::pair<std::int64_t, std::int64_t> DimSlice(std::int64_t dim, std::int32_t num_devices,
                                               DeviceId dev) {
  const std::int64_t base = dim / num_devices;
  const std::int64_t extra = dim % num_devices;
  const std::int64_t lo = dev * base + std::min<std::int64_t>(dev, extra);
  const std::int64_t hi = lo + base + (dev < extra ? 1 : 0);
  return {lo, hi};
}

/// Copies rows [lo, lo + rows) of `t` into a contiguous tensor.
Tensor Rows(const Tensor& t, std::int64_t lo, std::int64_t rows) {
  Tensor out(rows, t.cols());
  std::copy_n(t.row(lo), rows * t.cols(), out.data());
  return out;
}

/// Adds rows [lo, hi) of `full` into the same rows of grad.
void AddRowBlock(Tensor& grad, const Tensor& full, std::int64_t lo, std::int64_t hi) {
  for (std::int64_t r = lo; r < hi; ++r) {
    float* dst = grad.row(r);
    const float* src = full.row(r);
    for (std::int64_t j = 0; j < full.cols(); ++j) dst[j] += src[j];
  }
}

/// Writes `slice` into columns [lo, lo + slice.cols()) of dst.
void SetColumns(Tensor& dst, std::int64_t lo, const Tensor& slice) {
  for (std::int64_t r = 0; r < slice.rows(); ++r) {
    std::copy_n(slice.row(r), slice.cols(), dst.row(r) + lo);
  }
}

/// Shuffle: broadcasts every device's layer-1 computation graph.
std::vector<Block> BroadcastLayer1Graphs(EngineCtx& ctx,
                                         const std::vector<DeviceBatch>& batches) {
  std::vector<Block> block0s;
  block0s.reserve(batches.size());
  for (const auto& b : batches) block0s.push_back(b.sample.blocks[0]);
  return ctx.comm->AllBroadcastObjects(
      std::move(block0s), [](const Block& b) { return b.bytes(); }, Phase::kSample);
}

/// Layer-1 partials of every origin from every device's dimension slice.
/// Device g gathers columns [lo, hi) of all origins' sources in one batch;
/// partial_fn(g, lo, hi) returns its per-origin step (o, h, flops) -> partial.
/// Partials are summed per origin in device order (AllReduceSum's Axpy
/// order). Each device is charged its flops and a transient holding its
/// gathered slice plus all c partials, as if it kept them for the allreduce.
template <typename PartialFn>
std::vector<Tensor> SlicePartials(EngineCtx& ctx, const std::vector<Block>& all0,
                                  const PartialFn& partial_fn) {
  const std::int32_t c = ctx.num_devices();
  std::vector<Tensor> sums(all0.size());
  std::vector<NodeId> nodes;
  for (const Block& b : all0) nodes.insert(nodes.end(), b.src_nodes.begin(), b.src_nodes.end());
  for (DeviceId g = 0; g < c; ++g) {
    const auto [lo, hi] = DimSlice(ctx.feature_dim(), c, g);
    Tensor h_all(static_cast<std::int64_t>(nodes.size()), hi - lo);
    if (!nodes.empty()) ctx.store->Gather(g, nodes, lo, hi, h_all);
    const auto partial = partial_fn(g, lo, hi);
    std::int64_t transient = h_all.bytes();
    std::int64_t first = 0;  // origin o's first row in h_all
    double flops = 0.0;
    for (std::size_t o = 0; o < all0.size(); first += all0[o].num_src(), ++o) {
      if (all0[o].num_dst == 0) continue;
      Tensor part = partial(o, Rows(h_all, first, all0[o].num_src()), flops);
      transient += part.bytes();
      if (g == 0) {
        sums[o] = std::move(part);
      } else {
        Axpy(1.0f, part, sums[o]);
      }
    }
    ctx.sim->ChargeCompute(g, flops);
    ctx.sim->NoteTransient(g, transient);
  }
  return sums;
}

/// Layer-1 weight gradients of the dimension slices. For each saved input k
/// one full-width GEMM per origin forms saved_k[o]^T grads[o]; device g adds
/// its row block [lo, hi) into grad_of(g, k), origin after origin. Each
/// device is then charged its slices' flops, in device order.
template <typename GradOf>
void SliceWeightGrads(EngineCtx& ctx, const std::vector<Tensor>& grads,
                      const std::vector<const std::vector<Tensor>*>& saved,
                      const GradOf& grad_of) {
  const std::int32_t c = ctx.num_devices();
  const std::int64_t d = ctx.feature_dim();
  const std::int64_t out_dim = ctx.model(0).layer(0).out_dim();
  const double gemm_flops = 2.0 * static_cast<double>(saved.size());
  std::vector<double> flops(static_cast<std::size_t>(c), 0.0);
  for (std::size_t o = 0; o < grads.size(); ++o) {
    const Tensor& go = grads[o];
    if (go.rows() == 0) continue;
    for (std::size_t k = 0; k < saved.size(); ++k) {
      Tensor gw(d, out_dim);
      MatmulTN((*saved[k])[o], go, gw);
      for (DeviceId g = 0; g < c; ++g) {
        const auto [lo, hi] = DimSlice(d, c, g);
        AddRowBlock(grad_of(g, k), gw, lo, hi);
      }
    }
    for (DeviceId g = 0; g < c; ++g) {
      const auto [lo, hi] = DimSlice(d, c, g);
      flops[static_cast<std::size_t>(g)] +=
          gemm_flops * static_cast<double>(go.rows()) * (hi - lo) * out_dim;
    }
  }
  for (DeviceId g = 0; g < c; ++g) {
    ctx.sim->ChargeCompute(g, flops[static_cast<std::size_t>(g)]);
  }
}

class NfpExecutor final : public StrategyExecutor {
 public:
  using StrategyExecutor::StrategyExecutor;

  StepStats Step(std::vector<DeviceBatch>& batches) override {
    StepStats agg;
    for (const auto& b : batches) agg.num_seeds += static_cast<std::int64_t>(b.labels.size());
    if (ctx_->model_kind() == ModelKind::kSage) return StepSage(batches, agg);
    return StepGat(batches, agg);
  }

 private:
  // `agg` arrives with num_seeds set; the step adds loss and correct.
  StepStats StepSage(std::vector<DeviceBatch>& batches, StepStats agg);
  StepStats StepGat(std::vector<DeviceBatch>& batches, StepStats agg);
};

StepStats NfpExecutor::StepSage(std::vector<DeviceBatch>& batches, StepStats agg) {
  const std::int32_t c = ctx_->num_devices();
  const std::int64_t d = ctx_->feature_dim();
  const auto uc = static_cast<std::size_t>(c);

  obs::StageSpan stage("shuffle", "nfp");
  const std::vector<Block> all0 = BroadcastLayer1Graphs(*ctx_, batches);

  stage.Next("execute");
  // Execute: each device computes dimension-sliced partials for ALL graphs.
  // saved_agg[o] / saved_self[o] hold origin o's full-width aggregate and
  // self rows for the weight-gradient pass; device g fills columns [lo, hi).
  std::vector<Tensor> saved_agg(uc), saved_self(uc);
  for (std::size_t o = 0; o < uc; ++o) saved_agg[o] = saved_self[o] = Tensor(all0[o].num_dst, d);
  std::vector<Tensor> raw0 = SlicePartials(*ctx_, all0, [&](DeviceId g, std::int64_t lo,
                                                            std::int64_t hi) {
    auto& sage = dynamic_cast<SageLayer&>(ctx_->model(g).layer(0));
    return [&, lo, hi, out = sage.out_dim(), w_neigh = Rows(sage.w_neigh().value, lo, hi - lo),
            w_self = Rows(sage.w_self().value, lo, hi - lo)](std::size_t o, const Tensor& h,
                                                              double& flops) {
      const Block& b = all0[o];
      Tensor aggd(b.num_dst, hi - lo);
      SpmmMean(b.csr(), h, aggd);
      const Tensor self = Rows(h, 0, b.num_dst);
      Tensor part(b.num_dst, out);
      Matmul(aggd, w_neigh, part);
      Matmul(self, w_self, part, 1.0f, 1.0f);
      flops += 4.0 * static_cast<double>(b.num_dst) * (hi - lo) * out +
               2.0 * static_cast<double>(b.num_edges()) * (hi - lo);
      SetColumns(saved_agg[o], lo, aggd);
      SetColumns(saved_self[o], lo, self);
      return part;
    };
  });

  stage.Next("reshuffle");
  // Reshuffle (forward): SparseAllreduce per origin; raw0 already holds the sums.
  for (std::size_t o = 0; o < uc; ++o) {
    if (all0[o].num_dst > 0) ctx_->comm->ChargeAllReduceSum(raw0[o], Phase::kTrain);
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
    const auto& blocks = batch.sample.blocks;
    ModelTape tape;
    const Tensor logits = ctx_->model(o).ForwardFrom(1, blocks, r0, &tape);
    Tensor grad_logits;
    const StepStats s = SeedLossAndGrad(*ctx_, o, batch, logits, agg.num_seeds, grad_logits);
    grad_raw0[static_cast<std::size_t>(o)] =
        ctx_->model(o).BackwardTo(1, blocks, tape, grad_logits);
    Tensor gb(1, sage.out_dim());
    BiasGradRows(grad_raw0[static_cast<std::size_t>(o)], gb);
    Axpy(1.0f, gb, sage.bias().grad);
    ChargeStepCompute(*ctx_, o, blocks, 1);
    agg.loss += s.loss;
    agg.correct += s.correct;
  }

  stage.Next("reshuffle");
  // Backward shuffle: broadcast layer-1 output gradients so every device can
  // form the gradient of its weight slice.
  const std::vector<Tensor> all_grad =
      ctx_->comm->AllBroadcastTensors(grad_raw0, Phase::kTrain);

  stage.Next("execute");
  SliceWeightGrads(*ctx_, all_grad, {&saved_agg, &saved_self},
                   [&](DeviceId g, std::size_t k) -> Tensor& {
                     auto& sage = dynamic_cast<SageLayer&>(ctx_->model(g).layer(0));
                     return k == 0 ? sage.w_neigh().grad : sage.w_self().grad;
                   });
  return agg;
}

StepStats NfpExecutor::StepGat(std::vector<DeviceBatch>& batches, StepStats agg) {
  const std::int32_t c = ctx_->num_devices();
  const std::int64_t d = ctx_->feature_dim();
  const auto uc = static_cast<std::size_t>(c);

  obs::StageSpan stage("shuffle", "nfp");
  const std::vector<Block> all0 = BroadcastLayer1Graphs(*ctx_, batches);

  stage.Next("execute");
  // Partial projections z from each dimension slice, for all graphs. Every
  // device holds z for EVERY graph's full source set: the memory blowup the
  // paper observes for NFP + attention at large hidden dims. saved_h[o] holds
  // origin o's full-width sources; device g fills columns [lo, hi).
  std::vector<Tensor> saved_h(uc);
  for (std::size_t o = 0; o < uc; ++o) saved_h[o] = Tensor(all0[o].num_src(), d);
  std::vector<Tensor> z_full = SlicePartials(*ctx_, all0, [&](DeviceId g, std::int64_t lo,
                                                              std::int64_t hi) {
    auto& gat = dynamic_cast<GatLayer&>(ctx_->model(g).layer(0));
    return [&, lo, hi, out = gat.out_dim(), w = Rows(gat.w().value, lo, hi - lo)](
               std::size_t o, const Tensor& h, double& flops) {
      Tensor z(h.rows(), out);
      Matmul(h, w, z);
      flops += 2.0 * static_cast<double>(h.rows()) * (hi - lo) * out;
      SetColumns(saved_h[o], lo, h);
      return z;
    };
  });

  stage.Next("reshuffle");
  // Allreduce partial projections per origin; z_full already holds the sums.
  for (std::size_t o = 0; o < uc; ++o) {
    if (all0[o].num_dst > 0) ctx_->comm->ChargeAllReduceSum(z_full[o], Phase::kTrain);
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
    const Tensor raw0 = gat.AttentionForward(b.csr(), b.num_dst,
                                             z_full[static_cast<std::size_t>(o)], &attn_ctx);
    const auto& blocks = batch.sample.blocks;
    ModelTape tape;
    const Tensor logits = ctx_->model(o).ForwardFrom(1, blocks, raw0, &tape);
    Tensor grad_logits;
    const StepStats s = SeedLossAndGrad(*ctx_, o, batch, logits, agg.num_seeds, grad_logits);
    const Tensor grad_raw0 = ctx_->model(o).BackwardTo(1, blocks, tape, grad_logits);
    grad_z[static_cast<std::size_t>(o)] =
        gat.AttentionBackward(b.csr(), b.num_dst, *attn_ctx, grad_raw0);
    ChargeStepCompute(*ctx_, o, blocks, 1);
    ctx_->sim->ChargeCompute(
        o, gat.ForwardFlops(b.num_src(), b.num_dst, b.num_edges()));
    agg.loss += s.loss;
    agg.correct += s.correct;
  }

  stage.Next("reshuffle");
  // Broadcast grad_z so each device forms its weight-slice gradient.
  const std::vector<Tensor> all_grad_z =
      ctx_->comm->AllBroadcastTensors(grad_z, Phase::kTrain);
  stage.Next("execute");
  SliceWeightGrads(*ctx_, all_grad_z, {&saved_h}, [&](DeviceId g, std::size_t) -> Tensor& {
    return dynamic_cast<GatLayer&>(ctx_->model(g).layer(0)).w().grad;
  });
  return agg;
}

}  // namespace

std::unique_ptr<StrategyExecutor> MakeNfpExecutor(EngineCtx& ctx) {
  return std::make_unique<NfpExecutor>(ctx);
}

}  // namespace apt
