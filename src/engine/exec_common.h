// Helpers shared by all strategy executors.
#pragma once

#include <optional>
#include <vector>

#include "engine/engine_ctx.h"
#include "engine/pair_routing.h"
#include "runtime/parallel_for.h"
#include "sampling/block.h"  // SampleTreeEdges
#include "sampling/minibatch.h"

namespace apt {

/// Splits a global step's seeds into contiguous per-device chunks (under
/// partition assignment, devices drain their own queues: EpochSchedule).
std::vector<std::vector<NodeId>> ChunkSeeds(std::span<const NodeId> step_seeds,
                                            std::int32_t num_devices);
inline std::vector<std::vector<NodeId>> AssignSeeds(const EngineCtx& ctx,
                                                    std::span<const NodeId> step_seeds) {
  return ChunkSeeds(step_seeds, ctx.num_devices());
}

/// The epoch the trainer and the dry-run step through: its step count, each
/// step's per-device seeds (chunks of one shuffled order, MinibatchPlan, or
/// slices of per-device partition queues, PerDeviceEpochQueues) and rng.
/// `minibatch_seed` shuffles the order or queues; `max_steps` > 0 caps steps.
class EpochSchedule {
 public:
  EpochSchedule(std::span<const NodeId> train_nodes, const std::vector<PartId>& partition,
                std::int32_t num_devices, std::int64_t batch_size,
                SeedAssignment assignment, std::uint64_t minibatch_seed,
                std::int64_t max_steps, std::uint64_t sample_seed, std::int64_t epoch);

  std::int64_t steps() const { return steps_; }
  /// Each device's seeds at `step` (a device's list may be empty).
  std::vector<std::vector<NodeId>> StepSeeds(std::int64_t step) const;
  /// The stream `step` samples from: Rng(sample_seed).Fork(epoch).Fork(step).
  Rng StepRng(std::int64_t step) const {
    return epoch_rng_.Fork(static_cast<std::uint64_t>(step));
  }

 private:
  std::optional<MinibatchPlan> plan_;  ///< chunked assignment only
  std::vector<NodeId> order_;          ///< plan_'s shuffled epoch order
  std::vector<std::vector<NodeId>> queues_;  ///< partition assignment only
  std::int32_t num_devices_;
  std::int64_t batch_size_;
  std::int64_t steps_ = 0;
  Rng epoch_rng_;
};

/// Samples each device's blocks from its own fork of `step_rng`, with labels.
/// Charges nothing; bit-identical at any lane count (one slot per device).
std::vector<DeviceBatch> SampleStep(const Dataset& dataset, const std::vector<int>& fanouts,
                                    const std::vector<std::vector<NodeId>>& seeds_per_device,
                                    const Rng& step_rng);

/// SampleStep, then each device's SampleSeconds advanced in device order.
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
