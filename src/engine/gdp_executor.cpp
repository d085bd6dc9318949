// Graph data parallel: each device processes its seeds end to end; the only
// inter-device communication is the DDP gradient allreduce (by the trainer).
//
// Pipelined execution (EngineOptions::pipeline_depth > 1): the feature
// gathers (kLoad) are the step's only comm-stream ops, so the replay overlaps
// micro-batch m+1's gather with micro-batch m's Execute. The gradient
// allreduce happens outside the pipelined scope (serial tail by design).
#include "engine/executor.h"
#include "engine/exec_common.h"
#include "engine/pair_routing.h"
#include "engine/quantized_grad.h"
#include "obs/trace.h"

namespace apt {

namespace {

class GdpExecutor final : public StrategyExecutor {
 public:
  using StrategyExecutor::StrategyExecutor;

  StepStats Step(std::vector<DeviceBatch>& batches) override {
    StepStats agg = StepSeeds(batches);
    // GDP has no shuffle stages: the whole step is one Execute.
    APT_OBS_SCOPE("execute", "gdp");
    const std::int64_t d = ctx_->feature_dim();
    // Quantized mode: the layer-0 parameter grads of ALL devices go through
    // the canonical grid-rounded path (the only GDP reduction whose grouping
    // differs from DNP's), so each device's backward stops at layer 1 and
    // its layer-0 inputs/gradients are kept alive until the joint pass.
    // Otherwise each device's tape dies with its lane.
    const bool quantized = UseQuantizedLayer0(*ctx_);
    const auto c = static_cast<std::size_t>(ctx_->num_devices());
    std::vector<ModelTape> tapes(quantized ? c : 0);
    std::vector<Tensor> grad_raw0(quantized ? c : 0);
    std::vector<std::vector<QuantizedBlockGrad>> qblocks(c);
    std::vector<StepLoad> loads(c);
    TrainDevicesInParallel(batches, agg, [&](DeviceId dev, StepStats& stats) {
      const auto udev = static_cast<std::size_t>(dev);
      const DeviceBatch& batch = batches[udev];
      const auto input_nodes = batch.sample.input_nodes();
      loads[udev] = GdpLoad(*ctx_->store, dev, input_nodes);
      Tensor feats = Tensor::Uninit(static_cast<std::int64_t>(input_nodes.size()), d);
      ctx_->store->Read(input_nodes, 0, d, feats);
      ModelTape tape;
      Tensor grad = TrainFrom(*ctx_, dev, batch, 0, std::move(feats), quantized ? 1 : 0,
                              agg.num_seeds, stats, quantized ? tapes[udev] : tape);
      if (!quantized) return;
      grad_raw0[udev] = std::move(grad);
      qblocks[udev].push_back(QuantizedBlockGrad{batch.sample.blocks[0].num_dst,
                                                 tapes[udev].layer_ctx[0].get(), &grad_raw0[udev]});
    });
    CommitCharges(*ctx_, GdpCharges(ctx_->model(0), batches, loads));
    if (quantized) QuantizedLayer0Backward(*ctx_, qblocks);
    return agg;
  }
};

}  // namespace

std::unique_ptr<StrategyExecutor> MakeGdpExecutor(EngineCtx& ctx) {
  return std::make_unique<GdpExecutor>(ctx);
}

}  // namespace apt
