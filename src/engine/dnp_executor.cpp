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

/// One owner's layer-1 work over its row block.
struct DnpOwnerWork {
  Block block;  ///< owner-local layer-1 graph, one dst row per record
  StepLoad load;
  std::unique_ptr<LayerContext> saved;
};

class DnpExecutor final : public StrategyExecutor {
 public:
  using StrategyExecutor::StrategyExecutor;

  StepStats Step(std::vector<DeviceBatch>& batches) override {
    const std::int32_t c = ctx_->num_devices();
    const std::int64_t d = ctx_->feature_dim();
    StepStats agg = StepSeeds(batches);

    // ---- Permute: counting-sort each origin's destinations by owner. ------
    obs::StageSpan stage("permute", "dnp");
    const RoutePlan plan = BuildDnpPlan(FirstBlocks(batches), NodeRouter{ctx_->partition});
    const PairRouting& routing = plan.routing;

    // ---- Shuffle destinations to their owners. ---------------------------
    // Owners then read their pairs of the step buffer in place.
    stage.Next("shuffle");
    ctx_->comm->ChargeAllToAll(plan.graph, Phase::kSample);

    // ---- Execute: owners build a local block and run the full layer. ------
    // Sources are deduplicated within each pair only (one DGL gather per
    // arriving virtual-node batch, matching the per-block loading semantics
    // the cost model assumes). The output stays in the owner's row block.
    stage.Next("execute");
    std::vector<DnpOwnerWork> work(static_cast<std::size_t>(c));
    std::vector<Tensor> owner_out(static_cast<std::size_t>(c));
    // Owners expand, count and run at once, one NodeRowTable per lane;
    // charges follow in device order.
    ParallelForChunks(
        0, c,
        [&](std::int64_t lo, std::int64_t hi) {
          NodeRowTable table;
          for (auto g = static_cast<DeviceId>(lo); g < hi; ++g) {
            DnpOwnerWork& w = work[static_cast<std::size_t>(g)];
            Block& lb = w.block;
            w.load = DnpLoad(*ctx_->store, plan, g, table, lb);
            if (lb.num_dst == 0) continue;
            Tensor feats = Tensor::Uninit(lb.num_src(), d);
            ctx_->store->Read(lb.src_nodes, 0, d, feats);
            owner_out[static_cast<std::size_t>(g)] =
                ctx_->model(g).layer(0).Forward(lb.csr(), lb.num_dst, feats, &w.saved);
          }
        },
        /*grain=*/1);
    for (DeviceId g = 0; g < c; ++g) {
      const auto& [lb, load, saved] = work[static_cast<std::size_t>(g)];
      if (lb.num_dst == 0) continue;
      ctx_->store->ChargeLoad(g, load.volume);
      ctx_->sim->NoteTransient(g, load.transient);
      ctx_->sim->ChargeCompute(
          g, ctx_->model(g).layer(0).ForwardFlops(lb.num_src(), lb.num_dst, lb.num_edges()));
    }

    // ---- Reshuffle: one embedding row per destination back to origins. ----
    stage.Next("reshuffle");
    const std::int64_t out = ctx_->model(0).layer(0).out_dim();
    ctx_->comm->ChargeAllToAll(routing.RowTraffic(*ctx_->comm, out, /*to_owners=*/false),
                               Phase::kTrain);

    // ---- Remainder of the model at origins. --------------------------------
    stage.Next("execute");
    std::vector<Tensor> grad_raw0(static_cast<std::size_t>(c));
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
    for (DeviceId o = 0; o < c; ++o) {
      const DeviceBatch& batch = batches[static_cast<std::size_t>(o)];
      if (!batch.labels.empty()) ChargeStepCompute(*ctx_, o, batch.sample.blocks, 1);
    }
    owner_out.clear();

    // ---- Backward shuffle: destination grads to the owners. ----------------
    stage.Next("reshuffle");
    std::vector<Tensor> grad_outs = RowsToOwners(plan, grad_raw0, out);
    ctx_->comm->ChargeAllToAll(routing.RowTraffic(*ctx_->comm, out, /*to_owners=*/true),
                               Phase::kTrain);

    // ---- Layer-1 backward at the owners. -----------------------------------
    // Quantized mode: the owner-grouped layer-0 parameter-grad sum goes
    // through the same canonical grid-rounded path GDP uses, making the two
    // groupings bit-identical. Owner grad tensors must outlive the joint
    // pass, so they live in `grad_outs` rather than the loop body.
    stage.Next("execute");
    const bool quantized = UseQuantizedLayer0(*ctx_);
    if (!quantized) {
      ParallelFor(
          0, c,
          [&](std::int64_t g) {
            DnpOwnerWork& w = work[static_cast<std::size_t>(g)];
            if (w.block.num_dst == 0) return;
            ctx_->model(static_cast<DeviceId>(g))
                .layer(0)
                .Backward(w.block.csr(), w.block.num_dst, *w.saved,
                          grad_outs[static_cast<std::size_t>(g)], /*input_grad=*/false);
          },
          /*grain=*/1);
    }
    std::vector<std::vector<QuantizedBlockGrad>> qblocks(
        static_cast<std::size_t>(c));
    for (DeviceId g = 0; g < c; ++g) {
      DnpOwnerWork& w = work[static_cast<std::size_t>(g)];
      if (w.block.num_dst == 0) continue;
      if (quantized) {
        qblocks[static_cast<std::size_t>(g)].push_back(QuantizedBlockGrad{
            w.block.num_dst, w.saved.get(), &grad_outs[static_cast<std::size_t>(g)]});
      }
      ctx_->sim->ChargeCompute(
          g, ctx_->model(g).layer(0).BackwardFlops(w.block.num_src(), w.block.num_dst,
                                                   w.block.num_edges()));
    }
    if (quantized) QuantizedLayer0Backward(*ctx_, qblocks);
    return agg;
  }
};

}  // namespace

std::unique_ptr<StrategyExecutor> MakeDnpExecutor(EngineCtx& ctx) {
  return std::make_unique<DnpExecutor>(ctx);
}

}  // namespace apt
