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
// The column split lives in the charges only. The simulator charges every
// device's slice load (NfpLoads, as the dry-run counts it),
// slice flops and the c x c partials (transient memory and one ring
// allreduce per origin), then the gradient broadcast and the slice weight
// gradients. The host runs GDP's step: each origin reads its own full-width
// input rows and trains its replica from layer 0, so NFP trains GDP's bits.
//
// Pipelined execution (EngineOptions::pipeline_depth > 1): the graph
// AllBroadcast, the dimension-slice feature loads (kLoad) and the partial
// allreduce / grad broadcast all land on the per-device comm stream, so NFP
// — the comm-heaviest strategy — gains the most from overlap; only the
// projection/aggregation compute stays on the compute stream.
#include "engine/exec_common.h"
#include "engine/executor.h"
#include "engine/pair_routing.h"
#include "obs/trace.h"

namespace apt {

namespace {

/// Charges each device, in device order, the flops of its slices of the
/// layer-1 weight gradients: num_saved GEMMs of every origin's gradient
/// rows against the device's columns.
void ChargeSliceWeightGrads(EngineCtx& ctx, const std::vector<std::int64_t>& grad_rows,
                            const std::vector<std::int64_t>& bounds, std::size_t num_saved) {
  const auto c = static_cast<std::size_t>(ctx.num_devices());
  const std::int64_t out_dim = ctx.model(0).layer(0).out_dim();
  const double gemm_flops = 2.0 * static_cast<double>(num_saved);
  std::vector<double> flops(c, 0.0);
  for (const std::int64_t rows : grad_rows) {
    if (rows == 0) continue;
    for (std::size_t g = 0; g < c; ++g) {
      flops[g] += gemm_flops * static_cast<double>(rows) * (bounds[g + 1] - bounds[g]) * out_dim;
    }
  }
  for (std::size_t g = 0; g < c; ++g) ctx.sim->ChargeCompute(static_cast<DeviceId>(g), flops[g]);
}

class NfpExecutor final : public StrategyExecutor {
 public:
  using StrategyExecutor::StrategyExecutor;

  StepStats Step(std::vector<DeviceBatch>& batches) override {
    StepStats agg = StepSeeds(batches);
    const std::int32_t c = ctx_->num_devices();
    const std::int64_t d = ctx_->feature_dim();
    const bool gat = ctx_->model_kind() == ModelKind::kGat;
    const GnnLayer& layer0 = ctx_->model(0).layer(0);
    const std::int64_t out = layer0.out_dim();
    // An origin's partial layer-1 output: its destinations' rows under SAGE,
    // every source's projection under GAT (attention needs whole z rows).
    const auto partial_rows = [gat](const Block& b) { return gat ? b.num_src() : b.num_dst; };
    const auto slice_flops = [gat, out](const Block& b, std::int64_t w) {
      return gat ? 2.0 * static_cast<double>(b.num_src()) * w * out
                 : 4.0 * static_cast<double>(b.num_dst) * w * out +
                       2.0 * static_cast<double>(b.num_edges()) * w;
    };
    obs::StageSpan stage("shuffle", "nfp");
    const std::vector<const Block*> all0 = FirstBlocks(batches);
    const NfpPlan plan = BuildNfpPlan(all0, d, gat);
    // Every device reads every origin's layer-1 graph in place.
    ctx_->comm->ChargeAllBroadcast(plan.graph_bytes, plan.graph_bytes, Phase::kSample);

    stage.Next("execute");
    // Each device is charged loading its dimension slice of ALL graphs'
    // inputs, projecting it and keeping its partials for the allreduce.
    const std::vector<StepLoad> loads = NfpLoads(*ctx_->store, plan, out);
    for (DeviceId g = 0; g < c; ++g) {
      const auto ug = static_cast<std::size_t>(g);
      const std::int64_t width = plan.bounds[ug + 1] - plan.bounds[ug];
      if (plan.rows() > 0) ctx_->store->ChargeLoad(g, loads[ug].volume);
      double flops = 0.0;
      for (const Block* b : all0) {
        if (b->num_dst > 0) flops += slice_flops(*b, width);
      }
      ctx_->sim->ChargeCompute(g, flops);
      ctx_->sim->NoteTransient(g, loads[ug].transient);
    }

    stage.Next("reshuffle");
    // SparseAllreduce of each origin's partials.
    for (const Block* b : all0) {
      if (b->num_dst > 0) {
        const std::int64_t rows = partial_rows(*b);
        ctx_->comm->ChargeAllReduce(rows * out * 4, ctx_->comm->WireBytes(rows, out),
                                    Phase::kTrain);
      }
    }

    stage.Next("execute");
    // Each origin trains its replica from its full-width inputs, exactly as
    // GDP does (all origins at once); the charges are the remainder past the
    // reduced partials (layers 1.., plus the attention block under GAT).
    TrainDevicesInParallel(batches, agg, [&](DeviceId o, StepStats& stats) {
      const DeviceBatch& batch = batches[static_cast<std::size_t>(o)];
      const auto inputs = batch.sample.input_nodes();
      Tensor feats = Tensor::Uninit(static_cast<std::int64_t>(inputs.size()), d);
      ctx_->store->Read(inputs, 0, d, feats);
      ModelTape tape;
      TrainFrom(*ctx_, o, batch, 0, std::move(feats), 0, agg.num_seeds, stats, tape);
    });
    std::vector<std::int64_t> grad_rows(static_cast<std::size_t>(c), 0);
    for (DeviceId o = 0; o < c; ++o) {
      const DeviceBatch& batch = batches[static_cast<std::size_t>(o)];
      if (batch.labels.empty()) continue;
      const auto& blocks = batch.sample.blocks;
      ChargeStepCompute(*ctx_, o, blocks, 1);
      const Block& b = blocks[0];
      if (gat) {
        ctx_->sim->ChargeCompute(o, layer0.ForwardFlops(b.num_src(), b.num_dst, b.num_edges()));
      }
      grad_rows[static_cast<std::size_t>(o)] = partial_rows(b);
    }

    stage.Next("reshuffle");
    // Every device reads every origin's layer-1 output gradient (grad_z
    // under GAT) to form its weight slice's gradient.
    std::int64_t grad_bytes = 0;
    std::int64_t grad_wire = 0;
    for (const std::int64_t rows : grad_rows) {
      grad_bytes += rows * out * 4;
      grad_wire += ctx_->comm->WireBytes(rows, out);
    }
    ctx_->comm->ChargeAllBroadcast(grad_bytes, grad_wire, Phase::kTrain);

    stage.Next("execute");
    ChargeSliceWeightGrads(*ctx_, grad_rows, plan.bounds, gat ? 1 : 2);
    return agg;
  }
};

}  // namespace

std::unique_ptr<StrategyExecutor> MakeNfpExecutor(EngineCtx& ctx) {
  return std::make_unique<NfpExecutor>(ctx);
}

}  // namespace apt
