// Sparse kernels over bipartite CSR structures (the DGL SpMM / SDDMM
// equivalents the unified engine executes on each simulated GPU).
//
// A bipartite layer has `num_dst` destination rows; `indptr` (size
// num_dst + 1) delimits each destination's incoming edges and `col[e]`
// names the *local* source row of edge e. Features are dense Tensors.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace apt {

struct CsrView;

/// Transposed (source-major) copy of a bipartite CSR: edges grouped by
/// *source* row instead of destination. `dst[t]` is the destination of
/// transposed edge t and `eid[t]` its index in the original edge order, so
/// per-edge payloads (weights, scores) stay addressable. Within one source,
/// edges keep ascending destination order — the accumulation order of a
/// serial destination-major scatter, so results do not depend on lane count.
struct CsrTranspose {
  std::int64_t num_src = 0;
  std::vector<std::int64_t> indptr;  ///< size num_src + 1
  std::vector<std::int64_t> dst;     ///< destination row per transposed edge
  std::vector<std::int64_t> eid;     ///< original edge id per transposed edge
};

/// Counting-sort transpose of `csr`; `num_src` must exceed every col entry.
CsrTranspose BuildCsrTranspose(const CsrView& csr, std::int64_t num_src);

/// Lazily-built, memoized transpose. A Block owns one of these so the
/// backward pass transposes each sampled CSR at most once per structure and
/// reuses it every epoch. Get() must not race with itself for the same cache
/// (in practice it runs on the single orchestrating thread of a training
/// step, before any parallel region starts); the returned reference lives as
/// long as the cache does. Copies share the built transpose — do not mutate
/// the underlying CSR after the first Get().
class CsrTransposeCache {
 public:
  const CsrTranspose& Get(const CsrView& csr, std::int64_t num_src) const;

 private:
  mutable std::shared_ptr<const CsrTranspose> cached_;
};

/// View of one bipartite adjacency (no ownership).
struct CsrView {
  std::span<const std::int64_t> indptr;  ///< size num_dst + 1
  std::span<const std::int64_t> col;     ///< size num_edges, local src ids
  /// Optional transpose cache (Block::csr() fills this in). Backward kernels
  /// run scatter-style gradients as parallel source-major gathers over the
  /// cached transpose, or over a scratch one built per call without it.
  const CsrTransposeCache* tcache = nullptr;
  std::int64_t num_dst() const { return static_cast<std::int64_t>(indptr.size()) - 1; }
  std::int64_t num_edges() const { return static_cast<std::int64_t>(col.size()); }
};

// ---------------------------------------------------------------------------
// SpMM with sum / mean reduction.
// ---------------------------------------------------------------------------

/// out.row(d) = sum_{e in d} src.row(col[e]); out must be num_dst x d.
void SpmmSum(const CsrView& csr, const Tensor& src, Tensor& out);

/// out.row(d) = mean over d's edges (empty rows produce zeros).
void SpmmMean(const CsrView& csr, const Tensor& src, Tensor& out);
/// grad_src.row(col[e]) += grad_out.row(d) / deg(d) (accumulates).
void SpmmMeanBackward(const CsrView& csr, const Tensor& grad_out, Tensor& grad_src);

// ---------------------------------------------------------------------------
// Edge-weighted SpMM (GAT aggregation after softmax).
// ---------------------------------------------------------------------------

/// out.row(d) = sum_{e in d} w[e] * src.row(col[e]). w has one value per edge.
void SpmmWeightedSum(const CsrView& csr, std::span<const float> edge_w,
                     const Tensor& src, Tensor& out);
/// Gradients of the weighted sum w.r.t. both edge weights and src features.
/// grad_w[e] += <grad_out.row(d), src.row(col[e])>;
/// grad_src.row(col[e]) += w[e] * grad_out.row(d). Either output may be null.
void SpmmWeightedSumBackward(const CsrView& csr, std::span<const float> edge_w,
                             const Tensor& src, const Tensor& grad_out,
                             std::span<float> grad_w, Tensor* grad_src);

// ---------------------------------------------------------------------------
// SDDMM: per-edge scores from node vectors (GAT attention logits).
// ---------------------------------------------------------------------------

/// score[e] = a_src[col[e]] + a_dst[d] — the additive GAT logit form, where
/// a_src / a_dst are per-node scalars (one column per head handled by caller).
void SddmmAdd(const CsrView& csr, std::span<const float> a_src,
              std::span<const float> a_dst, std::span<float> score);
/// Backward: grad_a_src[col[e]] += grad_score[e]; grad_a_dst[d] += grad_score[e].
void SddmmAddBackward(const CsrView& csr, std::span<const float> grad_score,
                      std::span<float> grad_a_src, std::span<float> grad_a_dst);

// ---------------------------------------------------------------------------
// Segment softmax over each destination's incoming edges.
// ---------------------------------------------------------------------------

/// out[e] = softmax over edges of the same destination (max-stabilized).
void SegmentSoftmax(const CsrView& csr, std::span<const float> score,
                    std::span<float> out);
/// grad_score[e] = out[e] * (grad_out[e] - sum_d(out .* grad_out)).
void SegmentSoftmaxBackward(const CsrView& csr, std::span<const float> out,
                            std::span<const float> grad_out,
                            std::span<float> grad_score);

}  // namespace apt
