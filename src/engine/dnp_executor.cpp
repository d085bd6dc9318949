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

/// Destination records of one step. Pair p's records are [first, last) of
/// these arrays; record r's sources are srcs[src_ptr[r], src_ptr[r+1]), so
/// each pair's sources are contiguous.
struct DnpRecords {
  std::vector<std::int64_t> dst_local;  ///< row in origin's layer-1 output
  std::vector<NodeId> dst_global;
  std::vector<std::size_t> src_ptr{0};
  std::vector<NodeId> srcs;  ///< global source ids (per edge)

  std::size_t Sources(const RoutePair& pr) const { return src_ptr[pr.last] - src_ptr[pr.first]; }
};

/// One owner's layer-1 work over its row block.
struct DnpOwnerWork {
  Block block;  ///< owner-local layer-1 graph, one dst row per record
  std::unique_ptr<LayerContext> saved;
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

    // ---- Permute: counting-sort each origin's destinations by owner. ------
    // Each owner's records keep destination order.
    obs::StageSpan stage("permute", "dnp");
    PairRouting routing;
    DnpRecords rec;
    {
      OwnerBuckets buckets(c);
      std::vector<DeviceId> dst_owner;
      std::size_t num_rec = 0, num_srcs = 0;
      for (DeviceId o = 0; o < c; ++o) {
        const Block& b = batches[static_cast<std::size_t>(o)].sample.blocks[0];
        const auto n = static_cast<std::size_t>(b.num_dst);
        dst_owner.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
          const auto g = static_cast<DeviceId>(ctx_->OwnerOf(b.src_nodes[i]));
          dst_owner[i] = g;
          buckets.Count(g);
          buckets.extra[static_cast<std::size_t>(g)] +=
              static_cast<std::size_t>(b.indptr[i + 1] - b.indptr[i]);
        }
        buckets.Layout(o, num_rec, num_srcs, routing);
        rec.dst_local.resize(num_rec);
        rec.dst_global.resize(num_rec);
        rec.src_ptr.resize(num_rec + 1);
        rec.srcs.resize(num_srcs);
        for (std::size_t i = 0; i < n; ++i) {
          const auto g = static_cast<std::size_t>(dst_owner[i]);
          const std::size_t r = buckets.next[g]++;
          rec.dst_local[r] = static_cast<std::int64_t>(i);
          rec.dst_global[r] = b.src_nodes[i];
          rec.src_ptr[r] = buckets.extra_next[g];
          for (std::int64_t e = b.indptr[i]; e < b.indptr[i + 1]; ++e) {
            rec.srcs[buckets.extra_next[g]++] =
                b.src_nodes[static_cast<std::size_t>(b.col[static_cast<std::size_t>(e)])];
          }
        }
        rec.src_ptr.back() = num_srcs;
      }
      routing.IndexOwners(c);
    }

    // ---- Shuffle destinations to their owners. ---------------------------
    // A batch of n records travels as dst_local, dst_global, a source indptr
    // (n + 1) and the sources, all int64. Owners then read their pairs of
    // the step buffer in place.
    stage.Next("shuffle");
    ctx_->comm->ChargeAllToAll(
        routing.Traffic(/*to_owners=*/true,
                        [&](const RoutePair& pr) {
                          const auto bytes = static_cast<std::int64_t>(
                              8 * (3 * (pr.last - pr.first) + 1 + rec.Sources(pr)));
                          return std::pair<std::int64_t, std::int64_t>(bytes, bytes);
                        }),
        Phase::kSample);

    // ---- Execute: owners build a local block and run the full layer. ------
    // Destination rows come first (Block prefix convention), origins
    // ascending; each record keeps its own row even if the same node arrives
    // from two origins, because its sampled edge lists differ per origin.
    // Sources are deduplicated within each pair only (one DGL gather per
    // arriving virtual-node batch, matching the per-block loading semantics
    // the cost model assumes), and never share a destination prefix row.
    // The output stays in the owner's row block.
    stage.Next("execute");
    std::vector<DnpOwnerWork> work(static_cast<std::size_t>(c));
    std::vector<Tensor> owner_out(static_cast<std::size_t>(c));
    {
      NodeRowTable table;
      for (DeviceId g = 0; g < c; ++g) {
        DnpOwnerWork& w = work[static_cast<std::size_t>(g)];
        Block& lb = w.block;
        for (std::size_t p : routing.OfOwner(g)) {
          const std::span<const NodeId> dsts = routing.pairs[p].Of(rec.dst_global);
          lb.src_nodes.insert(lb.src_nodes.end(), dsts.begin(), dsts.end());
        }
        lb.num_dst = routing.Rows(g);
        lb.indptr.push_back(0);
        for (std::size_t p : routing.OfOwner(g)) {
          const RoutePair& pr = routing.pairs[p];
          table.Reset(rec.Sources(pr));
          for (std::size_t r = pr.first; r < pr.last; ++r) {
            for (std::size_t s = rec.src_ptr[r]; s < rec.src_ptr[r + 1]; ++s) {
              lb.col.push_back(table.Insert(rec.srcs[s], lb.src_nodes));
            }
            lb.indptr.push_back(static_cast<std::int64_t>(lb.col.size()));
          }
        }
        if (lb.num_dst == 0) continue;

        Tensor feats(lb.num_src(), d);
        ctx_->store->Gather(g, lb.src_nodes, 0, d, feats);
        ctx_->sim->NoteTransient(g, 2 * feats.bytes());
        GnnLayer& layer0 = ctx_->model(g).layer(0);
        owner_out[static_cast<std::size_t>(g)] =
            layer0.Forward(lb.csr(), lb.num_dst, feats, &w.saved);
        ctx_->sim->ChargeCompute(
            g, layer0.ForwardFlops(lb.num_src(), lb.num_dst, lb.num_edges()));
      }
    }

    // ---- Reshuffle: one embedding row per destination back to origins. ----
    stage.Next("reshuffle");
    const std::int64_t out = ctx_->model(0).layer(0).out_dim();
    ctx_->comm->ChargeAllToAll(routing.RowTraffic(*ctx_->comm, out, /*to_owners=*/false),
                               Phase::kTrain);

    // ---- Remainder of the model at origins. --------------------------------
    stage.Next("execute");
    std::vector<Tensor> grad_raw0(static_cast<std::size_t>(c));
    for (DeviceId o = 0; o < c; ++o) {
      DeviceBatch& batch = batches[static_cast<std::size_t>(o)];
      if (batch.labels.empty()) continue;
      const Block& b = batch.sample.blocks[0];
      Tensor raw0(b.num_dst, out);
      for (const RoutePair& pr : routing.OfOrigin(o)) {
        CopyRowsFrom(owner_out[static_cast<std::size_t>(pr.owner)], pr.row,
                     pr.Of(rec.dst_local), raw0);
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
    owner_out.clear();

    // ---- Backward shuffle: destination grads to the owners. ----------------
    // An origin with records has seeds, hence a layer-0 gradient.
    stage.Next("reshuffle");
    std::vector<Tensor> grad_outs(static_cast<std::size_t>(c));
    for (DeviceId g = 0; g < c; ++g) {
      if (routing.Rows(g) == 0) continue;
      Tensor& grad_out = grad_outs[static_cast<std::size_t>(g)];
      grad_out = Tensor(routing.Rows(g), out);
      for (std::size_t p : routing.OfOwner(g)) {
        const RoutePair& pr = routing.pairs[p];
        const Tensor& src = grad_raw0[static_cast<std::size_t>(pr.origin)];
        APT_CHECK_GT(src.rows(), 0);
        CopyRowsTo(src, pr.Of(rec.dst_local), grad_out, pr.row);
      }
    }
    ctx_->comm->ChargeAllToAll(routing.RowTraffic(*ctx_->comm, out, /*to_owners=*/true),
                               Phase::kTrain);

    // ---- Layer-1 backward at the owners. -----------------------------------
    // Quantized mode: the owner-grouped layer-0 parameter-grad sum goes
    // through the same canonical grid-rounded path GDP uses, making the two
    // groupings bit-identical. Owner grad tensors must outlive the joint
    // pass, so they live in `grad_outs` rather than the loop body.
    stage.Next("execute");
    const bool quantized = UseQuantizedLayer0(*ctx_);
    std::vector<std::vector<QuantizedBlockGrad>> qblocks(
        static_cast<std::size_t>(c));
    for (DeviceId g = 0; g < c; ++g) {
      DnpOwnerWork& w = work[static_cast<std::size_t>(g)];
      if (w.block.num_dst == 0) continue;
      Tensor& grad_out = grad_outs[static_cast<std::size_t>(g)];
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
