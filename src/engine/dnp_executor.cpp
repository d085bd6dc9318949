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
#include <unordered_map>

#include "engine/exec_common.h"
#include "engine/executor.h"
#include "engine/quantized_grad.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace apt {

namespace {

/// Destination records shipped from origin o to owner g.
struct DnpDstBatch {
  std::vector<std::int64_t> dst_local;   ///< row in origin's layer-1 output
  std::vector<NodeId> dst_global;
  std::vector<std::int64_t> src_indptr;  ///< size n+1
  std::vector<NodeId> srcs;              ///< global source ids (per edge)

  std::int64_t size() const { return static_cast<std::int64_t>(dst_local.size()); }
  std::int64_t bytes() const {
    return static_cast<std::int64_t>(dst_local.size() * 8 + dst_global.size() * 8 +
                                     src_indptr.size() * 8 + srcs.size() * 8);
  }
};

class DnpExecutor final : public StrategyExecutor {
 public:
  using StrategyExecutor::StrategyExecutor;

  StepStats Step(std::vector<DeviceBatch>& batches) override {
    const std::int32_t c = ctx_->num_devices();
    const std::int64_t d = ctx_->feature_dim();
    std::int64_t total_seeds = 0;
    for (const auto& b : batches) {
      total_seeds += static_cast<std::int64_t>(b.labels.size());
    }
    StepStats agg;
    agg.num_seeds = total_seeds;

    // ---- Permute: group destinations by owner. ---------------------------
    obs::StageSpan stage("permute", "dnp");
    std::vector<std::vector<DnpDstBatch>> sends(
        static_cast<std::size_t>(c), std::vector<DnpDstBatch>(static_cast<std::size_t>(c)));
    for (DeviceId o = 0; o < c; ++o) {
      const Block& b = batches[static_cast<std::size_t>(o)].sample.blocks[0];
      for (std::int64_t i = 0; i < b.num_dst; ++i) {
        const NodeId dst = b.src_nodes[static_cast<std::size_t>(i)];
        const auto g = static_cast<std::size_t>(ctx_->OwnerOf(dst));
        DnpDstBatch& db = sends[static_cast<std::size_t>(o)][g];
        if (db.src_indptr.empty()) db.src_indptr.push_back(0);
        db.dst_local.push_back(i);
        db.dst_global.push_back(dst);
        for (std::int64_t e = b.indptr[static_cast<std::size_t>(i)];
             e < b.indptr[static_cast<std::size_t>(i) + 1]; ++e) {
          db.srcs.push_back(
              b.src_nodes[static_cast<std::size_t>(b.col[static_cast<std::size_t>(e)])]);
        }
        db.src_indptr.push_back(static_cast<std::int64_t>(db.srcs.size()));
      }
    }

    // ---- Shuffle destinations to their owners. ---------------------------
    stage.Next("shuffle");
    auto recv = ctx_->comm->AllToAllObjects(
        std::move(sends), [](const DnpDstBatch& b) { return b.bytes(); },
        Phase::kSample);

    // ---- Execute: owners build a local block and run the full layer. ------
    stage.Next("execute");
    struct OwnerWork {
      Block block;                             ///< owner-local layer-1 graph
      std::vector<DeviceId> origin_of;         ///< per local dst
      std::vector<std::int64_t> dst_local_of;  ///< per local dst
      std::unique_ptr<LayerContext> saved;
    };
    std::vector<OwnerWork> work(static_cast<std::size_t>(c));
    std::vector<std::vector<Tensor>> out_sends(
        static_cast<std::size_t>(c), std::vector<Tensor>(static_cast<std::size_t>(c)));
    for (DeviceId g = 0; g < c; ++g) {
      OwnerWork& w = work[static_cast<std::size_t>(g)];
      // Destination rows come first (Block prefix convention); each record
      // keeps its own row even if the same node arrives from two origins,
      // because its sampled edge lists differ per origin.
      Block& lb = w.block;
      for (DeviceId o = 0; o < c; ++o) {
        const DnpDstBatch& db = recv[static_cast<std::size_t>(g)][static_cast<std::size_t>(o)];
        for (std::int64_t r = 0; r < db.size(); ++r) {
          lb.src_nodes.push_back(db.dst_global[static_cast<std::size_t>(r)]);
          w.origin_of.push_back(o);
          w.dst_local_of.push_back(db.dst_local[static_cast<std::size_t>(r)]);
        }
      }
      lb.num_dst = static_cast<std::int64_t>(lb.src_nodes.size());
      lb.indptr.push_back(0);
      // Sources are deduplicated within each origin's batch only (one DGL
      // gather per arriving virtual-node batch, matching the per-block
      // loading semantics the cost model assumes). Destination prefix rows
      // are never shared as source slots: duplicate destinations from
      // different origins keep distinct rows and distinct edge lists.
      std::unordered_map<NodeId, std::int64_t> local;
      std::int64_t cursor = 0;
      for (DeviceId o = 0; o < c; ++o) {
        const DnpDstBatch& db = recv[static_cast<std::size_t>(g)][static_cast<std::size_t>(o)];
        local.clear();
        for (std::int64_t r = 0; r < db.size(); ++r, ++cursor) {
          for (std::int64_t e = db.src_indptr[static_cast<std::size_t>(r)];
               e < db.src_indptr[static_cast<std::size_t>(r) + 1]; ++e) {
            const NodeId u = db.srcs[static_cast<std::size_t>(e)];
            auto [it, inserted] = local.try_emplace(
                u, static_cast<std::int64_t>(lb.src_nodes.size()));
            if (inserted) lb.src_nodes.push_back(u);
            lb.col.push_back(it->second);
          }
          lb.indptr.push_back(static_cast<std::int64_t>(lb.col.size()));
        }
      }
      if (lb.num_dst == 0) continue;

      Tensor feats(lb.num_src(), d);
      ctx_->store->Gather(g, lb.src_nodes, 0, d, feats);
      ctx_->sim->NoteTransient(g, 2 * feats.bytes());
      GnnLayer& layer0 = ctx_->model(g).layer(0);
      const Tensor out = layer0.Forward(lb.csr(), lb.num_dst, feats, &w.saved);
      ctx_->sim->ChargeCompute(
          g, layer0.ForwardFlops(lb.num_src(), lb.num_dst, lb.num_edges()));

      // Split output rows back per origin (rows are grouped by origin).
      std::int64_t row = 0;
      for (DeviceId o = 0; o < c; ++o) {
        const DnpDstBatch& db = recv[static_cast<std::size_t>(g)][static_cast<std::size_t>(o)];
        if (db.size() == 0) continue;
        Tensor rows(db.size(), out.cols());
        std::copy_n(out.row(row), db.size() * out.cols(), rows.data());
        row += db.size();
        out_sends[static_cast<std::size_t>(g)][static_cast<std::size_t>(o)] = std::move(rows);
      }
    }

    // ---- Reshuffle: one embedding row per destination back to origins. ----
    stage.Next("reshuffle");
    auto out_recv = ctx_->comm->AllToAllTensors(out_sends, Phase::kTrain);

    // ---- Remainder of the model at origins. --------------------------------
    stage.Next("execute");
    std::vector<Tensor> grad_raw0(static_cast<std::size_t>(c));
    for (DeviceId o = 0; o < c; ++o) {
      DeviceBatch& batch = batches[static_cast<std::size_t>(o)];
      if (batch.labels.empty()) continue;
      const Block& b = batch.sample.blocks[0];
      Tensor raw0(b.num_dst, ctx_->model(o).layer(0).out_dim());
      for (DeviceId g = 0; g < c; ++g) {
        const Tensor& rows = out_recv[static_cast<std::size_t>(o)][static_cast<std::size_t>(g)];
        if (rows.rows() == 0) continue;
        // Row r of `rows` corresponds to dst_local stored at the owner; we
        // recover the mapping from the send-side batch we built earlier.
        const DnpDstBatch& db = recv[static_cast<std::size_t>(g)][static_cast<std::size_t>(o)];
        ScatterRows(rows, db.dst_local, raw0);
      }
      const auto& blocks = batch.sample.blocks;
      ModelTape tape;
      const Tensor logits = ctx_->model(o).ForwardFrom(1, blocks, raw0, &tape);
      Tensor grad_logits;
      const StepStats s =
          SeedLossAndGrad(*ctx_, o, batch, logits, total_seeds, grad_logits);
      grad_raw0[static_cast<std::size_t>(o)] =
          ctx_->model(o).BackwardTo(1, blocks, tape, grad_logits);
      ChargeStepCompute(*ctx_, o, blocks, 1);
      agg.loss += s.loss;
      agg.correct += s.correct;
    }

    // ---- Backward shuffle: destination grads to the owners. ----------------
    stage.Next("reshuffle");
    std::vector<std::vector<Tensor>> grad_sends(
        static_cast<std::size_t>(c), std::vector<Tensor>(static_cast<std::size_t>(c)));
    for (DeviceId o = 0; o < c; ++o) {
      const Tensor& go = grad_raw0[static_cast<std::size_t>(o)];
      if (go.rows() == 0) continue;
      for (DeviceId g = 0; g < c; ++g) {
        const DnpDstBatch& db = recv[static_cast<std::size_t>(g)][static_cast<std::size_t>(o)];
        if (db.size() == 0) continue;
        Tensor rows(db.size(), go.cols());
        GatherRows(go, db.dst_local, rows);
        grad_sends[static_cast<std::size_t>(o)][static_cast<std::size_t>(g)] = std::move(rows);
      }
    }
    auto grad_recv = ctx_->comm->AllToAllTensors(grad_sends, Phase::kTrain);

    // ---- Layer-1 backward at the owners. -----------------------------------
    // Quantized mode: the owner-grouped layer-0 parameter-grad sum goes
    // through the same canonical grid-rounded path GDP uses, making the two
    // groupings bit-identical. Owner grad tensors must outlive the joint
    // pass, so they live in `grad_outs` rather than the loop body.
    stage.Next("execute");
    const bool quantized = UseQuantizedLayer0(*ctx_);
    std::vector<Tensor> grad_outs(static_cast<std::size_t>(c));
    std::vector<std::vector<QuantizedBlockGrad>> qblocks(
        static_cast<std::size_t>(c));
    for (DeviceId g = 0; g < c; ++g) {
      OwnerWork& w = work[static_cast<std::size_t>(g)];
      if (w.block.num_dst == 0) continue;
      Tensor& grad_out = grad_outs[static_cast<std::size_t>(g)];
      grad_out = Tensor(w.block.num_dst, ctx_->model(g).layer(0).out_dim());
      std::int64_t row = 0;
      for (DeviceId o = 0; o < c; ++o) {
        const DnpDstBatch& db = recv[static_cast<std::size_t>(g)][static_cast<std::size_t>(o)];
        if (db.size() == 0) continue;
        const Tensor& rows =
            grad_recv[static_cast<std::size_t>(g)][static_cast<std::size_t>(o)];
        APT_CHECK_EQ(rows.rows(), db.size());
        std::copy_n(rows.data(), rows.numel(), grad_out.row(row));
        row += db.size();
      }
      GnnLayer& layer0 = ctx_->model(g).layer(0);
      if (quantized) {
        qblocks[static_cast<std::size_t>(g)].push_back(
            QuantizedBlockGrad{w.block.num_dst, w.saved.get(), &grad_out});
      } else {
        layer0.Backward(w.block.csr(), w.block.num_dst, *w.saved, grad_out,
                        /*input_grad=*/false);
      }
      ctx_->sim->ChargeCompute(
          g, layer0.BackwardFlops(w.block.num_src(), w.block.num_dst,
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
