#include "model/gat_layer.h"

#include <algorithm>

#include <cmath>

#include "core/error.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace apt {

namespace {

struct GatFullContext final : LayerContext {
  Tensor input;
  std::unique_ptr<GatAttentionContext> attn;
};

/// Extracts one head's column slice of z into a contiguous tensor.
Tensor HeadSlice(const Tensor& z, std::int64_t head, std::int64_t head_dim) {
  Tensor out(z.rows(), head_dim);
  const std::int64_t lo = head * head_dim;
  for (std::int64_t i = 0; i < z.rows(); ++i) {
    std::copy_n(z.row(i) + lo, head_dim, out.row(i));
  }
  return out;
}

void AddHeadSlice(Tensor& z, std::int64_t head, std::int64_t head_dim,
                  const Tensor& slice) {
  const std::int64_t lo = head * head_dim;
  for (std::int64_t i = 0; i < z.rows(); ++i) {
    float* dst = z.row(i) + lo;
    const float* src = slice.row(i);
    for (std::int64_t j = 0; j < head_dim; ++j) dst[j] += src[j];
  }
}

}  // namespace

GatLayer::GatLayer(std::int64_t in_dim, std::int64_t head_dim, std::int64_t num_heads,
                   Rng& rng)
    : in_dim_(in_dim),
      head_dim_(head_dim),
      num_heads_(num_heads),
      w_("gat.w", in_dim, num_heads * head_dim),
      attn_src_("gat.attn_src", num_heads, head_dim),
      attn_dst_("gat.attn_dst", num_heads, head_dim),
      bias_("gat.bias", 1, num_heads * head_dim) {
  XavierUniform(w_.value, rng);
  XavierUniform(attn_src_.value, rng);
  XavierUniform(attn_dst_.value, rng);
}

Tensor GatLayer::Project(const Tensor& input) const {
  APT_CHECK_EQ(input.cols(), in_dim_);
  Tensor z(input.rows(), out_dim());
  Matmul(input, w_.value, z);
  return z;
}

Tensor GatLayer::ProjectBackward(const Tensor& input, const Tensor& grad_z,
                                 bool input_grad) {
  APT_CHECK_EQ(grad_z.rows(), input.rows());
  MatmulTN(input, grad_z, w_.grad, 1.0f, 1.0f);
  if (!input_grad) return Tensor();
  Tensor grad_input(input.rows(), in_dim_);
  MatmulNT(grad_z, w_.value, grad_input);
  return grad_input;
}

Tensor GatLayer::AttentionForward(const CsrView& csr, std::int64_t num_dst,
                                  const Tensor& z,
                                  std::unique_ptr<GatAttentionContext>* saved) const {
  APT_CHECK_EQ(z.cols(), out_dim());
  APT_CHECK_GE(z.rows(), num_dst);
  const std::int64_t e = csr.num_edges();
  auto ctx = std::make_unique<GatAttentionContext>();
  ctx->alpha.resize(static_cast<std::size_t>(num_heads_));
  ctx->score_raw.resize(static_cast<std::size_t>(num_heads_));

  Tensor out(num_dst, out_dim());
  for (std::int64_t h = 0; h < num_heads_; ++h) {
    const Tensor zh = HeadSlice(z, h, head_dim_);
    // Per-node attention scalars.
    std::vector<float> a_src(static_cast<std::size_t>(z.rows()), 0.0f);
    std::vector<float> a_dst(static_cast<std::size_t>(num_dst), 0.0f);
    const float* al = attn_src_.value.row(h);
    const float* ar = attn_dst_.value.row(h);
    for (std::int64_t i = 0; i < z.rows(); ++i) {
      const float* zr = zh.row(i);
      float acc = 0.0f;
      for (std::int64_t j = 0; j < head_dim_; ++j) acc += al[j] * zr[j];
      a_src[static_cast<std::size_t>(i)] = acc;
    }
    for (std::int64_t i = 0; i < num_dst; ++i) {
      const float* zr = zh.row(i);
      float acc = 0.0f;
      for (std::int64_t j = 0; j < head_dim_; ++j) acc += ar[j] * zr[j];
      a_dst[static_cast<std::size_t>(i)] = acc;
    }
    // Edge logits -> LeakyReLU -> segment softmax.
    auto& raw = ctx->score_raw[static_cast<std::size_t>(h)];
    raw.assign(static_cast<std::size_t>(e), 0.0f);
    SddmmAdd(csr, a_src, a_dst, raw);
    std::vector<float> activated(static_cast<std::size_t>(e));
    for (std::int64_t i = 0; i < e; ++i) {
      const float v = raw[static_cast<std::size_t>(i)];
      activated[static_cast<std::size_t>(i)] = v > 0.0f ? v : kLeakySlope * v;
    }
    auto& alpha = ctx->alpha[static_cast<std::size_t>(h)];
    alpha.assign(static_cast<std::size_t>(e), 0.0f);
    SegmentSoftmax(csr, activated, alpha);
    // Weighted aggregation into the head's output slice.
    Tensor head_out(num_dst, head_dim_);
    SpmmWeightedSum(csr, alpha, zh, head_out);
    AddHeadSlice(out, h, head_dim_, head_out);
  }
  ctx->z = z;
  AddBiasRows(out, bias_.value);
  if (saved != nullptr) *saved = std::move(ctx);
  return out;
}

Tensor GatLayer::AttentionBackward(const CsrView& csr, std::int64_t num_dst,
                                   const GatAttentionContext& saved,
                                   const Tensor& grad_out) {
  const Tensor& z = saved.z;
  const std::int64_t e = csr.num_edges();
  APT_CHECK_EQ(grad_out.rows(), num_dst);
  APT_CHECK_EQ(grad_out.cols(), out_dim());

  Tensor gb(1, out_dim());
  BiasGradRows(grad_out, gb);
  Axpy(1.0f, gb, bias_.grad);

  Tensor grad_z(z.rows(), out_dim());
  for (std::int64_t h = 0; h < num_heads_; ++h) {
    const Tensor zh = HeadSlice(z, h, head_dim_);
    const Tensor grad_out_h = HeadSlice(grad_out, h, head_dim_);
    const auto& alpha = saved.alpha[static_cast<std::size_t>(h)];
    const auto& raw = saved.score_raw[static_cast<std::size_t>(h)];

    // Through the weighted aggregation.
    std::vector<float> grad_alpha(static_cast<std::size_t>(e), 0.0f);
    Tensor grad_zh(z.rows(), head_dim_);
    SpmmWeightedSumBackward(csr, alpha, zh, grad_out_h, grad_alpha, &grad_zh);

    // Through the softmax.
    std::vector<float> grad_act(static_cast<std::size_t>(e), 0.0f);
    SegmentSoftmaxBackward(csr, alpha, grad_alpha, grad_act);

    // Through LeakyReLU.
    std::vector<float> grad_raw(static_cast<std::size_t>(e));
    for (std::int64_t i = 0; i < e; ++i) {
      const std::size_t idx = static_cast<std::size_t>(i);
      grad_raw[idx] = raw[idx] > 0.0f ? grad_act[idx] : kLeakySlope * grad_act[idx];
    }

    // Through the additive logit: per-node scalar grads.
    std::vector<float> grad_a_src(static_cast<std::size_t>(z.rows()), 0.0f);
    std::vector<float> grad_a_dst(static_cast<std::size_t>(num_dst), 0.0f);
    SddmmAddBackward(csr, grad_raw, grad_a_src, grad_a_dst);

    // a_src_i = <attn_src_h, z_i>: accumulate both directions.
    float* gal = attn_src_.grad.row(h);
    const float* al = attn_src_.value.row(h);
    for (std::int64_t i = 0; i < z.rows(); ++i) {
      const float g = grad_a_src[static_cast<std::size_t>(i)];
      if (g == 0.0f) continue;
      const float* zr = zh.row(i);
      float* gz = grad_zh.row(i);
      for (std::int64_t j = 0; j < head_dim_; ++j) {
        gal[j] += g * zr[j];
        gz[j] += g * al[j];
      }
    }
    float* gar = attn_dst_.grad.row(h);
    const float* ar = attn_dst_.value.row(h);
    for (std::int64_t i = 0; i < num_dst; ++i) {
      const float g = grad_a_dst[static_cast<std::size_t>(i)];
      if (g == 0.0f) continue;
      const float* zr = zh.row(i);
      float* gz = grad_zh.row(i);
      for (std::int64_t j = 0; j < head_dim_; ++j) {
        gar[j] += g * zr[j];
        gz[j] += g * ar[j];
      }
    }
    AddHeadSlice(grad_z, h, head_dim_, grad_zh);
  }
  return grad_z;
}

Tensor GatLayer::Forward(const CsrView& csr, std::int64_t num_dst, const Tensor& input,
                         std::unique_ptr<LayerContext>* saved) {
  auto ctx = std::make_unique<GatFullContext>();
  const Tensor z = Project(input);
  Tensor out = AttentionForward(csr, num_dst, z, &ctx->attn);
  if (saved != nullptr) {
    ctx->input = input;
    *saved = std::move(ctx);
  }
  return out;
}

Tensor GatLayer::Backward(const CsrView& csr, std::int64_t num_dst,
                          const LayerContext& saved, const Tensor& grad_out,
                          bool input_grad) {
  const auto& ctx = dynamic_cast<const GatFullContext&>(saved);
  const Tensor grad_z = AttentionBackward(csr, num_dst, *ctx.attn, grad_out);
  return ProjectBackward(ctx.input, grad_z, input_grad);
}

void GatLayer::CollectParams(std::vector<Param*>& out) {
  out.push_back(&w_);
  out.push_back(&attn_src_);
  out.push_back(&attn_dst_);
  out.push_back(&bias_);
}

double GatLayer::ForwardFlops(std::int64_t num_src, std::int64_t num_dst,
                              std::int64_t num_edges) const {
  (void)num_dst;
  const double proj = 2.0 * static_cast<double>(num_src) * in_dim_ * out_dim();
  const double attn = 6.0 * static_cast<double>(num_edges) * head_dim_ * num_heads_ +
                      2.0 * static_cast<double>(num_src) * out_dim();
  return proj + attn;
}

double GatLayer::BackwardFlops(std::int64_t num_src, std::int64_t num_dst,
                               std::int64_t num_edges) const {
  return 2.0 * ForwardFlops(num_src, num_dst, num_edges);
}

}  // namespace apt
