// Helpers shared by all strategy executors.
#pragma once

#include <vector>

#include "engine/engine_ctx.h"
#include "engine/pair_routing.h"
#include "runtime/parallel_for.h"
#include "sampling/block.h"  // SampleTreeEdges

namespace apt {

/// Splits a global step's seeds across devices per the assignment policy:
/// contiguous chunks, or each seed to the device owning its partition.
std::vector<std::vector<NodeId>> AssignSeeds(std::span<const NodeId> step_seeds,
                                             SeedAssignment assignment,
                                             const std::vector<PartId>& partition,
                                             std::int32_t num_devices);
inline std::vector<std::vector<NodeId>> AssignSeeds(const EngineCtx& ctx,
                                                    std::span<const NodeId> step_seeds) {
  return AssignSeeds(step_seeds, ctx.opts.seed_assignment, *ctx.partition, ctx.num_devices());
}

/// Samples each device's blocks (charging simulated sampling time) and looks
/// up seed labels. rng streams are forked per device for determinism.
std::vector<DeviceBatch> SampleDeviceBatches(
    EngineCtx& ctx, const std::vector<std::vector<NodeId>>& seeds_per_device,
    Rng& step_rng);

/// Per-device softmax cross-entropy on seed logits. Scales the gradient by
/// (device seeds / total seeds) so the later *sum* allreduce yields the
/// global-mean gradient regardless of per-device batch imbalance.
StepStats SeedLossAndGrad(const DeviceBatch& batch, const Tensor& logits,
                          std::int64_t total_seeds, Tensor& grad_logits);

/// One device's model pass on its batch: forward from layer `first_layer` on
/// that layer's input `input`, seed loss, and backward to layer
/// `backward_to`, returning the gradient of that layer's input (empty at
/// layer 0: features need none). Adds the loss and hits to `agg` and charges
/// nothing, so distinct devices' passes may run at once. `input` is freed
/// once the forward holds what it needs; `tape` keeps the forward's saved
/// state.
Tensor TrainFrom(EngineCtx& ctx, DeviceId dev, const DeviceBatch& batch, int first_layer,
                 Tensor input, int backward_to, std::int64_t total_seeds, StepStats& agg,
                 ModelTape& tape);

/// A step's stats before any device trains: every device's seeds.
inline StepStats StepSeeds(const std::vector<DeviceBatch>& batches) {
  StepStats agg;
  for (const DeviceBatch& b : batches) agg.num_seeds += static_cast<std::int64_t>(b.labels.size());
  return agg;
}

/// Every device's model pass as one ParallelFor over devices (grain 1):
/// body(dev, stats) runs for each device with seeds, `stats` being what it
/// passes to TrainFrom. Kernels nested inside a lane run inline, so each
/// device's float sequence is the serial loop's. The body must charge
/// nothing: the caller commits the step's charges afterwards (CommitCharges),
/// so clocks, step tapes and trace spans do not depend on the lane count.
/// The devices' stats are added into `agg` in device order.
template <typename Body>
void TrainDevicesInParallel(const std::vector<DeviceBatch>& batches, StepStats& agg,
                            const Body& body) {
  std::vector<StepStats> stats(batches.size());
  ParallelFor(
      0, static_cast<std::int64_t>(batches.size()),
      [&](std::int64_t i) {
        const auto u = static_cast<std::size_t>(i);
        if (!batches[u].labels.empty()) body(static_cast<DeviceId>(i), stats[u]);
      },
      /*grain=*/1);
  for (const StepStats& s : stats) {
    agg.loss += s.loss;
    agg.correct += s.correct;
  }
}

/// Makes a step's charges (engine/pair_routing.h) in list order.
void CommitCharges(EngineCtx& ctx, const StepCharges& charges);

/// DDP gradient synchronization: every replica ends holding the device-order
/// sum of all replicas' grads, charged to kTrain as one ring allreduce of
/// the packed flat gradient.
void AllReduceGradients(EngineCtx& ctx);

/// Simulated cost of sampling `batch` on `dev` (UVA edge traversals,
/// SampleTreeEdges from sampling/block.h). The trainer charges it and the
/// dry-run estimates with it, so the two agree.
double SampleSeconds(const ClusterSpec& cluster, DeviceId dev,
                     const SampledBatch& batch);

}  // namespace apt
