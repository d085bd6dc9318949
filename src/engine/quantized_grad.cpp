#include "engine/quantized_grad.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "model/sage_layer.h"
#include "tensor/codec.h"

namespace apt {

namespace {

double MaxAbs(const Tensor& t) {
  double m = 0.0;
  const float* p = t.data();
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    m = std::max(m, static_cast<double>(std::fabs(p[i])));
  }
  return m;
}

SageLayer& Layer0(EngineCtx& ctx, DeviceId d) {
  auto* layer = dynamic_cast<SageLayer*>(&ctx.model(d).layer(0));
  APT_CHECK(layer != nullptr) << "quantized layer-0 backward requires SAGE";
  return *layer;
}

}  // namespace

bool UseQuantizedLayer0(const EngineCtx& ctx) {
  // Single-layer models have no layer-0/layer-1 boundary to round; they keep
  // the standard backward (parity stays tolerance-level, like GAT).
  return CodecIsLossy(ctx.opts.wire_codec) &&
         ctx.model_kind() == ModelKind::kSage &&
         (*ctx.models)[0]->num_layers() >= 2;
}

void QuantizedLayer0Backward(
    EngineCtx& ctx,
    const std::vector<std::vector<QuantizedBlockGrad>>& per_device) {
  const auto c = static_cast<std::size_t>(ctx.num_devices());
  APT_CHECK_EQ(per_device.size(), c);

  // 1. Grid stats. Max-reduce {max |inputs|, max |grad_out|}; sum-reduce the
  // global dst-row count. Max is order-invariant outright, and the count is
  // a small-integer sum, so the reductions below give the numbers every
  // device would hold after the collectives regardless of how rows were
  // grouped. Each collective is charged at its double-vector size.
  std::array<double, 2> stats{0.0, 0.0};
  double count = 0.0;
  for (std::size_t d = 0; d < c; ++d) {
    SageLayer& layer0 = Layer0(ctx, static_cast<DeviceId>(d));
    double rows = 0.0;
    for (const QuantizedBlockGrad& blk : per_device[d]) {
      stats[0] = std::max(stats[0], layer0.QuantizedInputMaxAbs(blk.num_dst, *blk.saved));
      stats[1] = std::max(stats[1], MaxAbs(*blk.grad_out));
      rows += static_cast<double>(blk.num_dst);
    }
    count = d == 0 ? rows : count + rows;
  }
  constexpr std::int64_t kD = sizeof(double);
  ctx.comm->ChargeAllReduce(2 * kD, 2 * kD, Phase::kTrain);
  ctx.comm->ChargeAllReduce(kD, kD, Phase::kTrain);

  // Grid steps: with Mh = max input magnitude, Mg = max grad magnitude and
  // n dst rows, every per-row contribution is bounded by Mh*Mg (bias: Mg)
  // and there are n of them, so all partial sums stay below
  // Pow2Ceil(Mh)*Pow2Ceil(Mg)*Pow2Ceil(n) = grid * 2^46 — i.e. every
  // partial sum is an exact integer multiple of the grid step with fewer
  // than 53 significant bits: double addition of the rounded terms is
  // EXACT, in any order and grouping.
  const double grid_w = Pow2Ceil(stats[0]) * Pow2Ceil(stats[1]) * Pow2Ceil(count) *
                        std::ldexp(1.0, -46);
  const double grid_b = Pow2Ceil(stats[1]) * Pow2Ceil(count) * std::ldexp(1.0, -46);

  // 2. Grid-rounded accumulation of every device's blocks, 3. the exact
  // cross-device sum: one total, which the grid argument makes independent
  // of the order and grouping of the additions.
  const auto acc_size = static_cast<std::size_t>(Layer0(ctx, 0).QuantizedAccumSize());
  std::vector<double> total(acc_size, 0.0);
  for (std::size_t d = 0; d < c; ++d) {
    SageLayer& layer0 = Layer0(ctx, static_cast<DeviceId>(d));
    for (const QuantizedBlockGrad& blk : per_device[d]) {
      layer0.BackwardQuantized(blk.num_dst, *blk.saved, *blk.grad_out, grid_w, grid_b, total);
    }
  }
  const auto acc_bytes = static_cast<std::int64_t>(acc_size) * kD;
  ctx.comm->ChargeAllReduce(acc_bytes, acc_bytes, Phase::kTrain);

  // 4. One double->float conversion of the global totals, carried by device
  // 0 only. The float gradient allreduce that follows adds exact zeros from
  // every other replica, so all replicas end with the identical total.
  for (std::size_t d = 0; d < c; ++d) {
    SageLayer& layer0 = Layer0(ctx, static_cast<DeviceId>(d));
    const std::int64_t wn = layer0.in_dim() * layer0.out_dim();
    float* w_self = layer0.w_self().grad.data();
    float* w_neigh = layer0.w_neigh().grad.data();
    float* bias = layer0.bias().grad.data();
    for (std::int64_t i = 0; i < wn; ++i) {
      w_self[i] = d == 0 ? static_cast<float>(total[static_cast<std::size_t>(i)]) : 0.0f;
      w_neigh[i] =
          d == 0 ? static_cast<float>(total[static_cast<std::size_t>(wn + i)]) : 0.0f;
    }
    for (std::int64_t i = 0; i < layer0.out_dim(); ++i) {
      bias[i] =
          d == 0 ? static_cast<float>(total[static_cast<std::size_t>(2 * wn + i)]) : 0.0f;
    }
  }
}

}  // namespace apt
