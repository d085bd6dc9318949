// Graph attention layer (GAT, Velickovic et al.) with multi-head attention
// and concatenated head outputs:
//   z_i = W^T h_i;  e_uv = LeakyReLU(a_l . z_u + a_r . z_v);
//   alpha = softmax over v's in-edges;  out_v = ||_heads sum_u alpha_uv z_u.
//
// Attention needs every destination to see *all* of its source nodes'
// projected embeddings before the softmax — the reason the paper finds SNP
// and NFP pay extra communication for GAT (Fig 10). To support those paths
// the projection (Project/ProjectBackward) and the attention block
// (AttentionForward/AttentionBackward) are exposed separately, so the
// engine can insert communication between them.
#pragma once

#include "core/random.h"
#include "model/gnn_layer.h"

namespace apt {

/// Saved activations of the attention block (public: the engine stores these
/// across the distributed communication boundary).
struct GatAttentionContext final : LayerContext {
  Tensor z;                          ///< [num_src, heads*head_dim]
  std::vector<std::vector<float>> alpha;      ///< per head, per edge
  std::vector<std::vector<float>> score_raw;  ///< pre-LeakyReLU logits
};

class GatLayer final : public GnnLayer {
 public:
  GatLayer(std::int64_t in_dim, std::int64_t head_dim, std::int64_t num_heads,
           Rng& rng);

  // --- monolithic interface (GDP / DNP local execution) -----------------
  Tensor Forward(const CsrView& csr, std::int64_t num_dst, const Tensor& input,
                 std::unique_ptr<LayerContext>* saved) override;
  Tensor Backward(const CsrView& csr, std::int64_t num_dst, const LayerContext& saved,
                  const Tensor& grad_out, bool input_grad) override;
  void CollectParams(std::vector<Param*>& out) override;
  std::int64_t in_dim() const override { return in_dim_; }
  std::int64_t out_dim() const override { return num_heads_ * head_dim_; }
  double ForwardFlops(std::int64_t num_src, std::int64_t num_dst,
                      std::int64_t num_edges) const override;
  double BackwardFlops(std::int64_t num_src, std::int64_t num_dst,
                       std::int64_t num_edges) const override;

  // --- split interface (SNP / NFP distributed execution) ----------------

  /// z = input W  ([rows, heads*head_dim]).
  Tensor Project(const Tensor& input) const;
  /// Accumulates grad_W (+nothing else); returns grad_input, or an empty
  /// tensor without `input_grad`.
  Tensor ProjectBackward(const Tensor& input, const Tensor& grad_z, bool input_grad);

  /// Attention given already-projected sources. The dst prefix convention
  /// applies to z as it does to input rows.
  Tensor AttentionForward(const CsrView& csr, std::int64_t num_dst, const Tensor& z,
                          std::unique_ptr<GatAttentionContext>* saved) const;
  /// Returns grad_z; accumulates attention-vector and bias grads.
  Tensor AttentionBackward(const CsrView& csr, std::int64_t num_dst,
                           const GatAttentionContext& saved, const Tensor& grad_out);

  std::int64_t num_heads() const { return num_heads_; }
  std::int64_t head_dim() const { return head_dim_; }
  Param& w() { return w_; }

  static constexpr float kLeakySlope = 0.2f;

 private:
  std::int64_t in_dim_;
  std::int64_t head_dim_;
  std::int64_t num_heads_;
  Param w_;          ///< [in_dim, heads*head_dim]
  Param attn_src_;   ///< [heads, head_dim]
  Param attn_dst_;   ///< [heads, head_dim]
  Param bias_;       ///< [1, heads*head_dim]
};

}  // namespace apt
