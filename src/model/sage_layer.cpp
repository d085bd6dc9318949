#include "model/sage_layer.h"
#include <algorithm>
#include <cmath>

#include "core/error.h"
#include "runtime/parallel_for.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace apt {

namespace {

struct SageContext final : LayerContext {
  Tensor self;               ///< [num_dst, in_dim] the input's dst prefix rows
  Tensor agg;                ///< [num_dst, in_dim] mean-aggregated neighbors
  std::int64_t num_src = 0;  ///< input rows (the input gradient's shape)
};

}  // namespace

SageLayer::SageLayer(std::int64_t in_dim, std::int64_t out_dim, Rng& rng)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      w_self_("sage.w_self", in_dim, out_dim),
      w_neigh_("sage.w_neigh", in_dim, out_dim),
      bias_("sage.bias", 1, out_dim) {
  XavierUniform(w_self_.value, rng);
  XavierUniform(w_neigh_.value, rng);
}

Tensor SageLayer::Forward(const CsrView& csr, std::int64_t num_dst, const Tensor& input,
                          std::unique_ptr<LayerContext>* saved) {
  APT_CHECK_EQ(input.cols(), in_dim_);
  APT_CHECK_GE(input.rows(), num_dst);
  auto ctx = std::make_unique<SageContext>();
  ctx->agg = Tensor::Uninit(num_dst, in_dim_);
  SpmmMean(csr, input, ctx->agg);

  Tensor out = Tensor::Uninit(num_dst, out_dim_);
  // Self term: only the dst prefix of the input participates, so only
  // those rows are saved for backward.
  Matmul(input, 0, w_self_.value, out);
  Matmul(ctx->agg, w_neigh_.value, out, 1.0f, 1.0f);
  AddBiasRows(out, bias_.value);

  if (saved != nullptr) {
    ctx->self = Tensor::Uninit(num_dst, in_dim_);
    std::copy_n(input.data(), num_dst * in_dim_, ctx->self.data());
    ctx->num_src = input.rows();
    *saved = std::move(ctx);
  }
  return out;
}

Tensor SageLayer::Backward(const CsrView& csr, std::int64_t num_dst,
                           const LayerContext& saved, const Tensor& grad_out,
                           bool input_grad) {
  const auto& ctx = dynamic_cast<const SageContext&>(saved);
  APT_CHECK_EQ(grad_out.rows(), num_dst);
  APT_CHECK_EQ(grad_out.cols(), out_dim_);
  const std::int64_t num_src = ctx.num_src;

  // Parameter grads.
  MatmulTN(ctx.self, grad_out, w_self_.grad, 1.0f, 1.0f);
  MatmulTN(ctx.agg, grad_out, w_neigh_.grad, 1.0f, 1.0f);
  Tensor gb(1, out_dim_);
  BiasGradRows(grad_out, gb);
  Axpy(1.0f, gb, bias_.grad);
  if (!input_grad) return Tensor();

  // Input grads.
  Tensor grad_input(num_src, in_dim_);
  // Through the neighbor path: grad_agg = grad_out W_neigh^T, then SpMM^T.
  Tensor grad_agg = Tensor::Uninit(num_dst, in_dim_);
  MatmulNT(grad_out, w_neigh_.value, grad_agg);
  SpmmMeanBackward(csr, grad_agg, grad_input);
  // Through the self path: adds into the dst prefix rows.
  Tensor grad_self = Tensor::Uninit(num_dst, in_dim_);
  MatmulNT(grad_out, w_self_.value, grad_self);
  for (std::int64_t i = 0; i < num_dst; ++i) {
    float* dst = grad_input.row(i);
    const float* src = grad_self.row(i);
    for (std::int64_t j = 0; j < in_dim_; ++j) dst[j] += src[j];
  }
  return grad_input;
}

double SageLayer::QuantizedInputMaxAbs(std::int64_t num_dst,
                                       const LayerContext& saved) const {
  const auto& ctx = dynamic_cast<const SageContext&>(saved);
  APT_CHECK_EQ(ctx.self.rows(), num_dst);
  double m = 0.0;
  const float* self = ctx.self.data();
  for (std::int64_t i = 0; i < ctx.self.numel(); ++i) {
    m = std::max(m, static_cast<double>(std::fabs(self[i])));
  }
  const float* agg = ctx.agg.data();
  for (std::int64_t i = 0; i < ctx.agg.numel(); ++i) {
    m = std::max(m, static_cast<double>(std::fabs(agg[i])));
  }
  return m;
}

void SageLayer::BackwardQuantized(std::int64_t num_dst, const LayerContext& saved,
                                  const Tensor& grad_out, double grid_w,
                                  double grid_b, std::span<double> acc) const {
  const auto& ctx = dynamic_cast<const SageContext&>(saved);
  APT_CHECK_EQ(grad_out.rows(), num_dst);
  APT_CHECK_EQ(grad_out.cols(), out_dim_);
  APT_CHECK_EQ(static_cast<std::int64_t>(acc.size()), QuantizedAccumSize());
  APT_CHECK_GT(grid_w, 0.0);
  APT_CHECK_GT(grid_b, 0.0);
  // Grids are powers of two: their reciprocals are exact, so the rounded
  // term nearbyint(c/grid)*grid is bit-identical however it is computed.
  const double inv_w = 1.0 / grid_w;
  const double inv_b = 1.0 / grid_b;
  double* w_self_acc = acc.data();
  double* w_neigh_acc = acc.data() + in_dim_ * out_dim_;
  double* bias_acc = acc.data() + 2 * in_dim_ * out_dim_;
  // Parallel over input dims: each lane owns disjoint accumulator rows, and
  // every addition is exact, so the split cannot change results.
  const std::int64_t out = out_dim_;
  ParallelFor(
      0, in_dim_,
      [&](std::int64_t m) {
        double* self_row = w_self_acc + m * out;
        double* neigh_row = w_neigh_acc + m * out;
        for (std::int64_t r = 0; r < num_dst; ++r) {
          const double a_self = static_cast<double>(ctx.self.row(r)[m]);
          const double a_agg = static_cast<double>(ctx.agg.row(r)[m]);
          const float* g = grad_out.row(r);
          for (std::int64_t n = 0; n < out; ++n) {
            const double gn = static_cast<double>(g[n]);
            self_row[n] += std::nearbyint(a_self * gn * inv_w) * grid_w;
            neigh_row[n] += std::nearbyint(a_agg * gn * inv_w) * grid_w;
          }
        }
      },
      /*grain=*/std::max<std::int64_t>(1, 4096 / std::max<std::int64_t>(1, out)));
  for (std::int64_t r = 0; r < num_dst; ++r) {
    const float* g = grad_out.row(r);
    for (std::int64_t n = 0; n < out; ++n) {
      bias_acc[n] += std::nearbyint(static_cast<double>(g[n]) * inv_b) * grid_b;
    }
  }
}

void SageLayer::CollectParams(std::vector<Param*>& out) {
  out.push_back(&w_self_);
  out.push_back(&w_neigh_);
  out.push_back(&bias_);
}

double SageLayer::ForwardFlops(std::int64_t num_src, std::int64_t num_dst,
                               std::int64_t num_edges) const {
  (void)num_src;
  const double proj = 4.0 * static_cast<double>(num_dst) * in_dim_ * out_dim_;
  const double agg = 2.0 * static_cast<double>(num_edges) * in_dim_;
  return proj + agg;
}

double SageLayer::BackwardFlops(std::int64_t num_src, std::int64_t num_dst,
                                std::int64_t num_edges) const {
  (void)num_src;
  // Two GEMMs per weight (param grad + input grad) plus the SpMM transpose.
  const double proj = 8.0 * static_cast<double>(num_dst) * in_dim_ * out_dim_;
  const double agg = 2.0 * static_cast<double>(num_edges) * in_dim_;
  return proj + agg;
}

}  // namespace apt
