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
// The column split lives in the charges only (NfpCharges, the list the
// dry-run counts too): every device's slice load (NfpLoads) and slice flops,
// the c x c partials (transient memory and one ring allreduce per origin),
// then the gradient broadcast and the slice weight gradients. The host runs
// GDP's step: each origin reads its own full-width input rows and trains its
// replica from layer 0, so NFP trains GDP's bits.
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

class NfpExecutor final : public StrategyExecutor {
 public:
  using StrategyExecutor::StrategyExecutor;

  StepStats Step(std::vector<DeviceBatch>& batches) override {
    StepStats agg = StepSeeds(batches);
    APT_OBS_SCOPE("execute", "nfp");
    const std::int64_t d = ctx_->feature_dim();
    const GnnModel& model = ctx_->model(0);
    const NfpPlan plan = BuildNfpPlan(batches, d, ctx_->model_kind() == ModelKind::kGat);
    const std::vector<StepLoad> loads = NfpLoads(*ctx_->store, plan, model.layer(0).out_dim());
    // Each origin trains its replica from its full-width inputs, exactly as
    // GDP does (all origins at once); the charges are the column split's.
    TrainDevicesInParallel(batches, agg, [&](DeviceId o, StepStats& stats) {
      const DeviceBatch& batch = batches[static_cast<std::size_t>(o)];
      const auto inputs = batch.sample.input_nodes();
      Tensor feats = Tensor::Uninit(static_cast<std::int64_t>(inputs.size()), d);
      ctx_->store->Read(inputs, 0, d, feats);
      ModelTape tape;
      TrainFrom(*ctx_, o, batch, 0, std::move(feats), 0, agg.num_seeds, stats, tape);
    });
    CommitCharges(*ctx_, NfpCharges(model, batches, plan, loads, ctx_->comm->wire_codec()));
    return agg;
  }
};

}  // namespace

std::unique_ptr<StrategyExecutor> MakeNfpExecutor(EngineCtx& ctx) {
  return std::make_unique<NfpExecutor>(ctx);
}

}  // namespace apt
