// Canonical quantized layer-0 parameter gradients.
//
// With a lossy wire codec the strategy-equivalence guarantee changes from
// "equal up to float32 reassociation" to "quantized-GDP and quantized-DNP
// are BIT-identical to each other": both strategies consume the exact same
// rounded boundary tensors (FeatureStore + GnnModel boundary hooks), and the
// only remaining order-dependent reduction — the layer-0 parameter-gradient
// sum over dst rows, which GDP groups by origin device and DNP by owner —
// is replaced by the grid-rounded double accumulation below, which is exact
// under any regrouping (DESIGN.md invariant 8).
#pragma once

#include <vector>

#include "engine/engine_ctx.h"
#include "model/gnn_layer.h"

namespace apt {

/// True when the engine must run the canonical quantized layer-0 backward:
/// a lossy wire codec and a SAGE model (GAT keeps the standard float
/// backward; its parity stays tolerance-level).
bool UseQuantizedLayer0(const EngineCtx& ctx);

/// One block a device executed layer 0 on (GDP: one per device; DNP owners:
/// one per origin device). All pointers must outlive the call.
struct QuantizedBlockGrad {
  std::int64_t num_dst = 0;
  const LayerContext* saved = nullptr;  ///< layer 0's forward context
  const Tensor* grad_out = nullptr;     ///< rounded grad at layer 0's output
};

/// Runs the canonical sequence over all devices' layer-0 blocks:
///  1. global grid stats (max |inputs|, max |grad_out|, dst-row count),
///     reduced once in device order (order-invariant) and charged as double
///     allreduces,
///  2. per-block grid-rounded double accumulation of parameter-grad
///     contributions (SageLayer::BackwardQuantized),
///  3. exact double sum across devices, charged as one double allreduce,
///  4. ONE double->float conversion, written into device 0's layer-0 grads
///     with zeros on every other replica — the unchanged float gradient
///     allreduce then reproduces the exact total everywhere (x + 0 + ...).
/// Devices with no blocks contribute empty stats/accumulators but still
/// participate in the collectives.
void QuantizedLayer0Backward(
    EngineCtx& ctx,
    const std::vector<std::vector<QuantizedBlockGrad>>& per_device);

}  // namespace apt
