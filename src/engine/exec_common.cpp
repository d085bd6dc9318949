#include "engine/exec_common.h"

#include <algorithm>

#include "runtime/parallel_for.h"
#include "sampling/neighbor_sampler.h"
#include "tensor/ops.h"

namespace apt {

std::vector<std::vector<NodeId>> AssignSeeds(std::span<const NodeId> step_seeds,
                                             SeedAssignment assignment,
                                             const std::vector<PartId>& partition,
                                             std::int32_t num_devices) {
  const auto c = static_cast<std::size_t>(num_devices);
  std::vector<std::vector<NodeId>> out(c);
  if (assignment == SeedAssignment::kChunked) {
    const std::size_t n = step_seeds.size();
    const std::size_t chunk = (n + c - 1) / c;
    for (std::size_t d = 0; d < c; ++d) {
      const std::size_t lo = std::min(n, d * chunk);
      const std::size_t hi = std::min(n, lo + chunk);
      out[d].assign(step_seeds.begin() + lo, step_seeds.begin() + hi);
    }
  } else {
    for (NodeId s : step_seeds) {
      out[static_cast<std::size_t>(partition[static_cast<std::size_t>(s)])].push_back(s);
    }
  }
  return out;
}

double SampleSeconds(const ClusterSpec& cluster, DeviceId dev,
                     const SampledBatch& batch) {
  const MachineSpec& m = cluster.machine(cluster.MachineOf(dev));
  return SampleTreeEdges(batch) * m.cpu_sample_edge_s +
         static_cast<double>(batch.blocks.size()) * m.gpu.kernel_launch_s;
}

std::vector<DeviceBatch> SampleDeviceBatches(
    EngineCtx& ctx, const std::vector<std::vector<NodeId>>& seeds_per_device,
    Rng& step_rng) {
  NeighborSampler sampler(ctx.dataset->graph, ctx.opts.fanouts);
  const auto c = static_cast<std::size_t>(ctx.num_devices());
  std::vector<DeviceBatch> batches(c);
  std::vector<double> seconds(c, 0.0);
  // Each device forks its own stream and fills only its own slot, so the
  // batches are bit-identical at any lane count. The clocks advance
  // afterwards in device order, so step tapes and pipelined capture see the
  // same sequence as a serial loop.
  ParallelFor(
      0, static_cast<std::int64_t>(c),
      [&](std::int64_t i) {
        const auto d = static_cast<std::size_t>(i);
        Rng dev_rng = step_rng.Fork(d);
        DeviceBatch& batch = batches[d];
        batch.sample = sampler.Sample(seeds_per_device[d], dev_rng);
        batch.labels.reserve(seeds_per_device[d].size());
        for (NodeId s : seeds_per_device[d]) {
          batch.labels.push_back(ctx.dataset->labels[static_cast<std::size_t>(s)]);
        }
        seconds[d] = SampleSeconds(ctx.sim->cluster(), static_cast<DeviceId>(d), batch.sample);
      },
      /*grain=*/1);
  for (std::size_t d = 0; d < c; ++d) {
    ctx.sim->Advance(static_cast<DeviceId>(d), seconds[d], Phase::kSample);
  }
  return batches;
}

StepStats SeedLossAndGrad(const DeviceBatch& batch, const Tensor& logits,
                          std::int64_t total_seeds, Tensor& grad_logits) {
  StepStats stats;
  stats.num_seeds = static_cast<std::int64_t>(batch.labels.size());
  if (stats.num_seeds == 0) {
    grad_logits = Tensor(0, logits.cols());
    return stats;
  }
  grad_logits = Tensor(logits.rows(), logits.cols());
  const float mean_loss =
      SoftmaxCrossEntropy(logits, batch.labels, &grad_logits, &stats.correct);
  // Per-device grad is d(device mean)/d logits; rescale so the DDP *sum*
  // over devices equals the gradient of the global per-seed mean.
  const float w = static_cast<float>(stats.num_seeds) / static_cast<float>(total_seeds);
  Scale(grad_logits, w);
  stats.loss = static_cast<double>(mean_loss) * w;
  return stats;
}

void AllReduceGradients(EngineCtx& ctx) {
  // Replica 0's grads become the sum over replicas, added in device order;
  // the sum is charged as one packed bucket (the flat tensor DDP reduces
  // with a single ring), and every other replica takes a copy.
  const std::vector<Param*> sum = ctx.model(0).Params();
  for (DeviceId d = 1; d < ctx.num_devices(); ++d) {
    const std::vector<Param*> mine = ctx.model(d).Params();
    for (std::size_t i = 0; i < sum.size(); ++i) Axpy(1.0f, mine[i]->grad, sum[i]->grad);
  }
  std::int64_t total = 0;
  for (const Param* p : sum) total += p->grad.numel();
  Tensor flat(1, total);
  std::int64_t off = 0;
  for (const Param* p : sum) {
    std::copy_n(p->grad.data(), p->grad.numel(), flat.data() + off);
    off += p->grad.numel();
  }
  ctx.comm->ChargeAllReduce(flat.bytes(), ctx.comm->RingWireBytes(flat, /*gradient_sync=*/true),
                            Phase::kTrain);
  for (DeviceId d = 1; d < ctx.num_devices(); ++d) {
    const std::vector<Param*> mine = ctx.model(d).Params();
    for (std::size_t i = 0; i < sum.size(); ++i) mine[i]->grad = sum[i]->grad;
  }
}

Tensor TrainFrom(EngineCtx& ctx, DeviceId dev, const DeviceBatch& batch, int first_layer,
                 Tensor input, int backward_to, std::int64_t total_seeds, StepStats& agg,
                 ModelTape& tape) {
  const auto& blocks = batch.sample.blocks;
  const Tensor logits = ctx.model(dev).ForwardFrom(first_layer, blocks, input, &tape);
  input = Tensor();
  Tensor grad_logits;
  const StepStats s = SeedLossAndGrad(batch, logits, total_seeds, grad_logits);
  Tensor grad_input = ctx.model(dev).BackwardTo(backward_to, blocks, tape, grad_logits);
  agg.loss += s.loss;
  agg.correct += s.correct;
  return grad_input;
}

void CommitCharges(EngineCtx& ctx, const StepCharges& charges) {
  for (const StepCharge& charge : charges) {
    if (const auto* l = std::get_if<LoadCharge>(&charge)) {
      if (l->load.volume.rows != decltype(LoadVolume::rows){}) {
        ctx.store->ChargeLoad(l->dev, l->load.volume);
      }
      ctx.sim->NoteTransient(l->dev, l->load.transient);
    } else if (const auto* k = std::get_if<ComputeCharge>(&charge)) {
      ctx.sim->ChargeCompute(k->dev, k->flops);
    } else if (const auto* r = std::get_if<RingCharge>(&charge)) {
      const auto ring =
          r->reduce ? &Communicator::ChargeAllReduce : &Communicator::ChargeAllBroadcast;
      (ctx.comm->*ring)(r->bytes, r->wire, r->phase);
    } else {
      const auto& a = std::get<AllToAllCharge>(charge);
      ctx.comm->ChargeAllToAll(a.traffic, a.phase);
    }
  }
}

}  // namespace apt
