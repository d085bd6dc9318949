// Destination node parallel (the paper's proposed strategy): layer-1 is
// partitioned by *destination* node. Each sampled destination travels, with
// its full sampled edge list, to the device owning its graph partition; the
// owner loads all source features (its cache covers its partition plus its
// 1-hop neighborhood), computes the COMPLETE layer-1 embedding, and ships a
// single hidden-embedding row back — at most one shuffled embedding per
// destination, the property that makes DNP cheap (§3.3).
//
// Because the owner sees every source of a destination, the same code path
// serves both GraphSAGE and GAT (no attention penalty — Fig 10).
//
// Pipelined execution (EngineOptions::pipeline_depth > 1): the destination
// all-to-all, the owners' feature gathers (kLoad) and the embedding-row
// return shuffle ride the per-device comm stream; the owner-side layer-1
// compute overlaps with the neighbouring micro-batches' shuffles.
//
// Host layout: the flat pair routing shared with SNP (engine/pair_routing.h).
// Each owner runs one layer-1 block over all of its pairs, and the arithmetic
// is bit-identical to per-pair execution (DESIGN.md "Pair routing on the
// host").
#include "engine/exec_common.h"
#include "engine/executor.h"
#include "engine/pair_routing.h"
#include "engine/quantized_grad.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace apt {

namespace {

class DnpExecutor final : public StrategyExecutor {
 public:
  using StrategyExecutor::StrategyExecutor;

  StepStats Step(std::vector<DeviceBatch>& batches) override {
    const std::int32_t c = ctx_->num_devices();
    const auto uc = static_cast<std::size_t>(c);
    const std::int64_t d = ctx_->feature_dim();
    StepStats agg = StepSeeds(batches);

    // ---- Permute: counting-sort each origin's destinations by owner. ------
    // The owners then read their pairs of the step buffer in place.
    obs::StageSpan stage("permute", "dnp");
    const RoutePlan plan = BuildDnpPlan(batches, NodeRouter{ctx_->partition});
    const PairRouting& routing = plan.routing;

    // ---- Execute: owners build a local block and run the full layer. ------
    // Sources are deduplicated within each pair only (one DGL gather per
    // arriving virtual-node batch, matching the per-block loading semantics
    // the cost model assumes). The output stays in the owner's row block.
    // Owners run at once, one NodeRowTable per lane.
    stage.Next("execute");
    std::vector<Block> blocks(uc);  // owner-local layer-1 graph, one dst row per record
    std::vector<StepLoad> loads(uc);
    std::vector<std::unique_ptr<LayerContext>> saved(uc);
    std::vector<Tensor> owner_out(uc);
    ParallelForChunks(
        0, c,
        [&](std::int64_t lo, std::int64_t hi) {
          NodeRowTable table;
          for (auto g = static_cast<std::size_t>(lo); g < static_cast<std::size_t>(hi); ++g) {
            Block& lb = blocks[g];
            loads[g] = DnpLoad(*ctx_->store, plan, static_cast<DeviceId>(g), table, lb);
            if (lb.num_dst == 0) continue;
            Tensor feats = Tensor::Uninit(lb.num_src(), d);
            ctx_->store->Read(lb.src_nodes, 0, d, feats);
            owner_out[g] = ctx_->model(static_cast<DeviceId>(g))
                               .layer(0)
                               .Forward(lb.csr(), lb.num_dst, feats, &saved[g]);
          }
        },
        /*grain=*/1);

    // ---- Remainder of the model at origins, which read one embedding row
    // per destination from its owner in place (the reshuffle). --------------
    const std::int64_t out = ctx_->model(0).layer(0).out_dim();
    std::vector<Tensor> grad_raw0(uc);
    TrainDevicesInParallel(batches, agg, [&](DeviceId o, StepStats& stats) {
      const DeviceBatch& batch = batches[static_cast<std::size_t>(o)];
      const Block& b = batch.sample.blocks[0];
      Tensor raw0(b.num_dst, out);
      for (const RoutePair& pr : routing.OfOrigin(o)) {
        CopyRowsFrom(owner_out[static_cast<std::size_t>(pr.owner)], pr.row,
                     pr.Of(plan.local), raw0);
      }
      ModelTape tape;
      grad_raw0[static_cast<std::size_t>(o)] =
          TrainFrom(*ctx_, o, batch, 1, std::move(raw0), 1, agg.num_seeds, stats, tape);
    });
    owner_out.clear();

    // ---- Backward shuffle: destination grads to the owners. ----------------
    stage.Next("reshuffle");
    std::vector<Tensor> grad_outs = RowsToOwners(plan, grad_raw0, out);

    // ---- Layer-1 backward at the owners. -----------------------------------
    // Quantized mode: the owner-grouped layer-0 parameter-grad sum goes
    // through the same canonical grid-rounded path GDP uses, making the two
    // groupings bit-identical; it runs once the step's charges are made.
    // Owner grad tensors must outlive the joint pass, so they live in
    // `grad_outs` rather than the loop body.
    stage.Next("execute");
    const bool quantized = UseQuantizedLayer0(*ctx_);
    std::vector<std::vector<QuantizedBlockGrad>> qblocks(uc);
    ParallelFor(
        0, c,
        [&](std::int64_t i) {
          const auto g = static_cast<std::size_t>(i);
          if (blocks[g].num_dst == 0) return;
          if (quantized) {
            qblocks[g].push_back(
                QuantizedBlockGrad{blocks[g].num_dst, saved[g].get(), &grad_outs[g]});
            return;
          }
          ctx_->model(static_cast<DeviceId>(g))
              .layer(0)
              .Backward(blocks[g].csr(), blocks[g].num_dst, *saved[g], grad_outs[g],
                        /*input_grad=*/false);
        },
        /*grain=*/1);
    CommitCharges(*ctx_, DnpCharges(ctx_->model(0), batches, plan, loads, blocks,
                                    ctx_->comm->wire_codec()));
    if (quantized) QuantizedLayer0Backward(*ctx_, qblocks);
    return agg;
  }
};

}  // namespace

std::unique_ptr<StrategyExecutor> MakeDnpExecutor(EngineCtx& ctx) {
  return std::make_unique<DnpExecutor>(ctx);
}

}  // namespace apt
