// Helpers shared by all strategy executors.
#pragma once

#include <vector>

#include "engine/engine_ctx.h"

namespace apt {

/// Splits a global step's seeds across devices per the assignment policy.
std::vector<std::vector<NodeId>> AssignSeeds(const EngineCtx& ctx,
                                             std::span<const NodeId> step_seeds);

/// Samples each device's blocks (charging simulated sampling time) and looks
/// up seed labels. rng streams are forked per device for determinism.
std::vector<DeviceBatch> SampleDeviceBatches(
    EngineCtx& ctx, const std::vector<std::vector<NodeId>>& seeds_per_device,
    Rng& step_rng);

/// Per-device softmax cross-entropy on seed logits. Scales the gradient by
/// (device seeds / total seeds) so the later *sum* allreduce yields the
/// global-mean gradient regardless of per-device batch imbalance.
StepStats SeedLossAndGrad(EngineCtx& ctx, DeviceId dev, const DeviceBatch& batch,
                          const Tensor& logits, std::int64_t total_seeds,
                          Tensor& grad_logits);

/// DDP gradient synchronization: packs every replica's grads into one flat
/// tensor, ring-allreduces, unpacks. Charged to kTrain.
void AllReduceGradients(EngineCtx& ctx);

/// Charges simulated compute time for a full local forward+backward over a
/// device's block stack (used by layers the strategy does not distribute).
void ChargeStepCompute(EngineCtx& ctx, DeviceId dev, std::span<const Block> blocks,
                       int first_layer);

/// Simulated cost of sampling `batch` on `dev` (UVA edge traversals). The
/// trainer charges it and the dry-run estimates with it, so the two agree.
double SampleSeconds(const ClusterSpec& cluster, DeviceId dev,
                     const SampledBatch& batch);

/// Size of the per-seed expansion multiset tree of `batch` (the number of
/// UVA topology reads sampling performs; see the definition in the .cpp).
double SampleTreeEdges(const SampledBatch& batch);

}  // namespace apt
