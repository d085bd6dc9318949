// GraphSAGE layer with mean aggregation (paper's default model):
//   out_d = W_self^T h_d + W_neigh^T mean_{u in N(d)} h_u + bias.
//
// Besides the monolithic Forward/Backward used for non-distributed layers,
// the class exposes the partial-computation pieces the engine composes for
// NFP (dimension-sliced projection) and SNP (source-side partial
// aggregation): mean aggregation commutes with the linear projection, which
// is exactly why those strategies are semantically equivalent to GDP.
#pragma once

#include <span>

#include "core/random.h"
#include "model/gnn_layer.h"

namespace apt {

class SageLayer final : public GnnLayer {
 public:
  SageLayer(std::int64_t in_dim, std::int64_t out_dim, Rng& rng);

  Tensor Forward(const CsrView& csr, std::int64_t num_dst, const Tensor& input,
                 std::unique_ptr<LayerContext>* saved) override;
  Tensor Backward(const CsrView& csr, std::int64_t num_dst, const LayerContext& saved,
                  const Tensor& grad_out, bool input_grad) override;
  void CollectParams(std::vector<Param*>& out) override;
  std::int64_t in_dim() const override { return in_dim_; }
  std::int64_t out_dim() const override { return out_dim_; }
  double ForwardFlops(std::int64_t num_src, std::int64_t num_dst,
                      std::int64_t num_edges) const override;
  double BackwardFlops(std::int64_t num_src, std::int64_t num_dst,
                       std::int64_t num_edges) const override;

  // --- canonical quantized backward (parameter grads only) --------------
  //
  // Quantized training needs layer-0 parameter gradients that are invariant
  // to HOW dst rows are grouped across devices (GDP groups by origin, DNP
  // by owner). Each dst row's contribution to a parameter entry is a single
  // product; BackwardQuantized computes it in double, rounds it to a shared
  // power-of-two grid, and accumulates in double — every partial sum is an
  // exact multiple of the grid step well inside double's 53-bit mantissa,
  // so addition is exact and the total is identical under any regrouping
  // (DESIGN.md invariant 8). Input gradients are NOT produced: the callers
  // only need parameter grads at layer 0.

  /// Length of the double accumulator: w_self then w_neigh (row-major,
  /// in_dim x out_dim each) then bias (out_dim).
  std::int64_t QuantizedAccumSize() const {
    return 2 * in_dim_ * out_dim_ + out_dim_;
  }
  /// maxabs over this block's layer-0 backward consumables: the dst-prefix
  /// input rows and the aggregated neighbor rows.
  double QuantizedInputMaxAbs(std::int64_t num_dst,
                              const LayerContext& saved) const;
  /// Accumulates the grid-rounded parameter-grad contributions of this
  /// block's dst rows onto `acc`. `grid_w` / `grid_b` must be powers of two
  /// shared by every participating block (see QuantizedLayer0Backward).
  void BackwardQuantized(std::int64_t num_dst, const LayerContext& saved,
                         const Tensor& grad_out, double grid_w, double grid_b,
                         std::span<double> acc) const;

  Param& w_self() { return w_self_; }
  Param& w_neigh() { return w_neigh_; }
  Param& bias() { return bias_; }
  const Param& w_self() const { return w_self_; }
  const Param& w_neigh() const { return w_neigh_; }
  const Param& bias() const { return bias_; }

 private:
  std::int64_t in_dim_;
  std::int64_t out_dim_;
  Param w_self_;   ///< [in_dim, out_dim]
  Param w_neigh_;  ///< [in_dim, out_dim]
  Param bias_;     ///< [1, out_dim]
};

}  // namespace apt
