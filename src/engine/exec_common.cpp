#include "engine/exec_common.h"

#include <algorithm>

#include "runtime/parallel_for.h"
#include "sampling/neighbor_sampler.h"
#include "tensor/ops.h"

namespace apt {

std::vector<std::vector<NodeId>> ChunkSeeds(std::span<const NodeId> step_seeds,
                                            std::int32_t num_devices) {
  const auto c = static_cast<std::size_t>(num_devices);
  std::vector<std::vector<NodeId>> out(c);
  const std::size_t n = step_seeds.size();
  const std::size_t chunk = (n + c - 1) / c;
  for (std::size_t d = 0; d < c; ++d) {
    const std::size_t lo = std::min(n, d * chunk);
    const std::size_t hi = std::min(n, lo + chunk);
    out[d].assign(step_seeds.begin() + lo, step_seeds.begin() + hi);
  }
  return out;
}

EpochSchedule::EpochSchedule(std::span<const NodeId> train_nodes,
                             const std::vector<PartId>& partition, std::int32_t num_devices,
                             std::int64_t batch_size, SeedAssignment assignment,
                             std::uint64_t minibatch_seed, std::int64_t max_steps,
                             std::uint64_t sample_seed, std::int64_t epoch)
    : num_devices_(num_devices),
      batch_size_(batch_size),
      epoch_rng_(Rng(sample_seed).Fork(static_cast<std::uint64_t>(epoch))) {
  if (assignment == SeedAssignment::kPartition) {
    queues_ = PerDeviceEpochQueues(train_nodes, partition, num_devices, epoch, minibatch_seed);
    steps_ = QueueStepsPerEpoch(queues_, batch_size);
  } else {
    plan_.emplace(std::vector<NodeId>(train_nodes.begin(), train_nodes.end()), batch_size,
                  num_devices, minibatch_seed);
    order_ = plan_->EpochSeeds(epoch);
    steps_ = plan_->StepsPerEpoch();
  }
  if (max_steps > 0) steps_ = std::min(steps_, max_steps);
}

std::vector<std::vector<NodeId>> EpochSchedule::StepSeeds(std::int64_t step) const {
  if (plan_.has_value()) return ChunkSeeds(plan_->StepSeeds(order_, step), num_devices_);
  std::vector<std::vector<NodeId>> out(queues_.size());
  for (std::size_t d = 0; d < queues_.size(); ++d) {
    const auto slice = QueueStepSlice(queues_[d], step, batch_size_);
    out[d].assign(slice.begin(), slice.end());
  }
  return out;
}

double SampleSeconds(const ClusterSpec& cluster, DeviceId dev,
                     const SampledBatch& batch) {
  const MachineSpec& m = cluster.machine(cluster.MachineOf(dev));
  return SampleTreeEdges(batch) * m.cpu_sample_edge_s +
         static_cast<double>(batch.blocks.size()) * m.gpu.kernel_launch_s;
}

std::vector<DeviceBatch> SampleStep(const Dataset& dataset, const std::vector<int>& fanouts,
                                    const std::vector<std::vector<NodeId>>& seeds_per_device,
                                    const Rng& step_rng) {
  const NeighborSampler sampler(dataset.graph, fanouts);
  std::vector<DeviceBatch> batches(seeds_per_device.size());
  ParallelFor(
      0, static_cast<std::int64_t>(batches.size()),
      [&](std::int64_t i) {
        const auto d = static_cast<std::size_t>(i);
        Rng dev_rng = step_rng.Fork(d);
        DeviceBatch& batch = batches[d];
        batch.sample = sampler.Sample(seeds_per_device[d], dev_rng);
        batch.labels.reserve(seeds_per_device[d].size());
        for (NodeId s : seeds_per_device[d]) {
          batch.labels.push_back(dataset.labels[static_cast<std::size_t>(s)]);
        }
      },
      /*grain=*/1);
  return batches;
}

std::vector<DeviceBatch> SampleDeviceBatches(
    EngineCtx& ctx, const std::vector<std::vector<NodeId>>& seeds_per_device,
    Rng& step_rng) {
  std::vector<DeviceBatch> batches =
      SampleStep(*ctx.dataset, ctx.opts.fanouts, seeds_per_device, step_rng);
  // The clocks advance in device order, so step tapes and pipelined capture
  // see the same sequence at any lane count.
  for (std::size_t d = 0; d < batches.size(); ++d) {
    const auto dev = static_cast<DeviceId>(d);
    ctx.sim->Advance(dev, SampleSeconds(ctx.sim->cluster(), dev, batches[d].sample),
                     Phase::kSample);
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
