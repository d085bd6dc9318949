#include "tensor/segment_ops.h"

#include <algorithm>
#include <cmath>

#include "core/error.h"
#include "runtime/parallel_for.h"

namespace apt {

namespace {

void CheckCsr(const CsrView& csr, const Tensor& src, const Tensor& out) {
  APT_CHECK_GE(csr.num_dst(), 0);
  APT_CHECK_EQ(out.rows(), csr.num_dst());
  APT_CHECK_EQ(out.cols(), src.cols());
  APT_CHECK_EQ(csr.indptr[static_cast<std::size_t>(csr.num_dst())], csr.num_edges());
}

// Dynamic-chunk grain for source-major gathers: roughly 4k floats of row
// traffic per cursor claim, so skewed (power-law) sources rebalance.
std::int64_t SrcGrain(std::int64_t dim) {
  return std::max<std::int64_t>(1, 4096 / std::max<std::int64_t>(1, dim));
}

// Picks the transpose for a backward scatter: the block-cached one when the
// view carries a cache, otherwise a scratch build into `scratch`.
const CsrTranspose& BackwardTranspose(const CsrView& csr, std::int64_t num_src,
                                      CsrTranspose& scratch) {
  if (csr.tcache != nullptr) return csr.tcache->Get(csr, num_src);
  scratch = BuildCsrTranspose(csr, num_src);
  return scratch;
}

}  // namespace

CsrTranspose BuildCsrTranspose(const CsrView& csr, std::int64_t num_src) {
  APT_CHECK_GE(num_src, 0);
  const std::int64_t num_dst = csr.num_dst();
  const std::int64_t num_edges = csr.num_edges();
  CsrTranspose t;
  t.num_src = num_src;
  t.indptr.assign(static_cast<std::size_t>(num_src) + 1, 0);
  t.dst.resize(static_cast<std::size_t>(num_edges));
  t.eid.resize(static_cast<std::size_t>(num_edges));
  for (std::int64_t e = 0; e < num_edges; ++e) {
    const std::int64_t s = csr.col[static_cast<std::size_t>(e)];
    APT_CHECK(s >= 0 && s < num_src) << "col " << s << " of " << num_src;
    ++t.indptr[static_cast<std::size_t>(s) + 1];
  }
  for (std::size_t s = 0; s < static_cast<std::size_t>(num_src); ++s) {
    t.indptr[s + 1] += t.indptr[s];
  }
  std::vector<std::int64_t> cursor(t.indptr.begin(), t.indptr.end() - 1);
  for (std::int64_t d = 0; d < num_dst; ++d) {
    for (std::int64_t e = csr.indptr[d]; e < csr.indptr[d + 1]; ++e) {
      const std::int64_t s = csr.col[static_cast<std::size_t>(e)];
      const std::int64_t slot = cursor[static_cast<std::size_t>(s)]++;
      t.dst[static_cast<std::size_t>(slot)] = d;
      t.eid[static_cast<std::size_t>(slot)] = e;
    }
  }
  return t;
}

const CsrTranspose& CsrTransposeCache::Get(const CsrView& csr,
                                           std::int64_t num_src) const {
  if (cached_ == nullptr || cached_->num_src != num_src ||
      static_cast<std::int64_t>(cached_->dst.size()) != csr.num_edges()) {
    cached_ = std::make_shared<const CsrTranspose>(BuildCsrTranspose(csr, num_src));
  }
  return *cached_;
}

void SpmmSum(const CsrView& csr, const Tensor& src, Tensor& out) {
  CheckCsr(csr, src, out);
  const std::int64_t dim = src.cols();
  ParallelFor(0, csr.num_dst(), [&](std::int64_t d) {
    float* orow = out.data() + d * dim;
    std::fill(orow, orow + dim, 0.0f);
    for (std::int64_t e = csr.indptr[d]; e < csr.indptr[d + 1]; ++e) {
      const float* srow = src.row(csr.col[static_cast<std::size_t>(e)]);
      for (std::int64_t j = 0; j < dim; ++j) orow[j] += srow[j];
    }
  }, 64);
}

void SpmmMean(const CsrView& csr, const Tensor& src, Tensor& out) {
  CheckCsr(csr, src, out);
  const std::int64_t dim = src.cols();
  ParallelFor(0, csr.num_dst(), [&](std::int64_t d) {
    float* orow = out.data() + d * dim;
    std::fill(orow, orow + dim, 0.0f);
    const std::int64_t deg = csr.indptr[d + 1] - csr.indptr[d];
    if (deg == 0) return;
    for (std::int64_t e = csr.indptr[d]; e < csr.indptr[d + 1]; ++e) {
      const float* srow = src.row(csr.col[static_cast<std::size_t>(e)]);
      for (std::int64_t j = 0; j < dim; ++j) orow[j] += srow[j];
    }
    const float inv = 1.0f / static_cast<float>(deg);
    for (std::int64_t j = 0; j < dim; ++j) orow[j] *= inv;
  }, 64);
}

void SpmmMeanBackward(const CsrView& csr, const Tensor& grad_out, Tensor& grad_src) {
  APT_CHECK_EQ(grad_out.rows(), csr.num_dst());
  APT_CHECK_EQ(grad_out.cols(), grad_src.cols());
  const std::int64_t dim = grad_src.cols();
  CsrTranspose scratch;
  const CsrTranspose& t = BackwardTranspose(csr, grad_src.rows(), scratch);
  std::vector<float> inv_deg(static_cast<std::size_t>(csr.num_dst()));
  for (std::int64_t d = 0; d < csr.num_dst(); ++d) {
    const std::int64_t deg = csr.indptr[d + 1] - csr.indptr[d];
    inv_deg[static_cast<std::size_t>(d)] =
        deg > 0 ? 1.0f / static_cast<float>(deg) : 0.0f;
  }
  // Source-major parallel gather: each lane owns disjoint source rows.
  const float* g = grad_out.data();
  float* out = grad_src.data();
  ParallelForChunksDynamic(0, t.num_src, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t s = lo; s < hi; ++s) {
      float* srow = out + s * dim;
      for (std::int64_t e = t.indptr[s]; e < t.indptr[s + 1]; ++e) {
        const std::int64_t d = t.dst[static_cast<std::size_t>(e)];
        const float inv = inv_deg[static_cast<std::size_t>(d)];
        const float* grow = g + d * dim;
        for (std::int64_t j = 0; j < dim; ++j) srow[j] += inv * grow[j];
      }
    }
  }, SrcGrain(dim));
}

void SpmmWeightedSum(const CsrView& csr, std::span<const float> edge_w,
                     const Tensor& src, Tensor& out) {
  CheckCsr(csr, src, out);
  APT_CHECK_EQ(static_cast<std::int64_t>(edge_w.size()), csr.num_edges());
  const std::int64_t dim = src.cols();
  ParallelFor(0, csr.num_dst(), [&](std::int64_t d) {
    float* orow = out.data() + d * dim;
    std::fill(orow, orow + dim, 0.0f);
    for (std::int64_t e = csr.indptr[d]; e < csr.indptr[d + 1]; ++e) {
      const float w = edge_w[static_cast<std::size_t>(e)];
      const float* srow = src.row(csr.col[static_cast<std::size_t>(e)]);
      for (std::int64_t j = 0; j < dim; ++j) orow[j] += w * srow[j];
    }
  }, 64);
}

void SpmmWeightedSumBackward(const CsrView& csr, std::span<const float> edge_w,
                             const Tensor& src, const Tensor& grad_out,
                             std::span<float> grad_w, Tensor* grad_src) {
  APT_CHECK_EQ(grad_out.rows(), csr.num_dst());
  APT_CHECK_EQ(static_cast<std::int64_t>(edge_w.size()), csr.num_edges());
  const std::int64_t dim = src.cols();
  if (!grad_w.empty()) {
    APT_CHECK_EQ(static_cast<std::int64_t>(grad_w.size()), csr.num_edges());
  }
  if (grad_src != nullptr) {
    APT_CHECK_EQ(grad_src->rows(), src.rows());
  }
  CsrTranspose scratch;
  const CsrTranspose& t = BackwardTranspose(csr, src.rows(), scratch);
  // Each original edge appears exactly once in the transpose, so the
  // per-edge grad_w writes are race-free alongside the per-source rows.
  const float* g = grad_out.data();
  const float* sp = src.data();
  float* gsp = grad_src != nullptr ? grad_src->data() : nullptr;
  ParallelForChunksDynamic(0, t.num_src, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t s = lo; s < hi; ++s) {
      const float* srow = sp + s * dim;
      float* gsrow = gsp != nullptr ? gsp + s * dim : nullptr;
      for (std::int64_t te = t.indptr[s]; te < t.indptr[s + 1]; ++te) {
        const std::size_t e = static_cast<std::size_t>(t.eid[static_cast<std::size_t>(te)]);
        const float* grow = g + t.dst[static_cast<std::size_t>(te)] * dim;
        if (!grad_w.empty()) {
          float acc = 0.0f;
          for (std::int64_t j = 0; j < dim; ++j) acc += grow[j] * srow[j];
          grad_w[e] += acc;
        }
        if (gsrow != nullptr) {
          const float w = edge_w[e];
          for (std::int64_t j = 0; j < dim; ++j) gsrow[j] += w * grow[j];
        }
      }
    }
  }, SrcGrain(dim));
}

void SddmmAdd(const CsrView& csr, std::span<const float> a_src,
              std::span<const float> a_dst, std::span<float> score) {
  APT_CHECK_EQ(static_cast<std::int64_t>(score.size()), csr.num_edges());
  APT_CHECK_EQ(static_cast<std::int64_t>(a_dst.size()), csr.num_dst());
  ParallelFor(0, csr.num_dst(), [&](std::int64_t d) {
    for (std::int64_t e = csr.indptr[d]; e < csr.indptr[d + 1]; ++e) {
      const std::int64_t s = csr.col[static_cast<std::size_t>(e)];
      score[static_cast<std::size_t>(e)] =
          a_src[static_cast<std::size_t>(s)] + a_dst[static_cast<std::size_t>(d)];
    }
  }, 256);
}

void SddmmAddBackward(const CsrView& csr, std::span<const float> grad_score,
                      std::span<float> grad_a_src, std::span<float> grad_a_dst) {
  APT_CHECK_EQ(static_cast<std::int64_t>(grad_score.size()), csr.num_edges());
  APT_CHECK_EQ(static_cast<std::int64_t>(grad_a_dst.size()), csr.num_dst());
  CsrTranspose scratch;
  const CsrTranspose& t =
      BackwardTranspose(csr, static_cast<std::int64_t>(grad_a_src.size()), scratch);
  ParallelForChunksDynamic(0, t.num_src, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t s = lo; s < hi; ++s) {
      float acc = 0.0f;
      for (std::int64_t e = t.indptr[s]; e < t.indptr[s + 1]; ++e) {
        acc += grad_score[static_cast<std::size_t>(t.eid[static_cast<std::size_t>(e)])];
      }
      grad_a_src[static_cast<std::size_t>(s)] += acc;
    }
  }, 512);
  ParallelForChunks(0, csr.num_dst(), [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t d = lo; d < hi; ++d) {
      float acc = 0.0f;
      for (std::int64_t e = csr.indptr[d]; e < csr.indptr[d + 1]; ++e) {
        acc += grad_score[static_cast<std::size_t>(e)];
      }
      grad_a_dst[static_cast<std::size_t>(d)] += acc;
    }
  }, 512);
}

void SegmentSoftmax(const CsrView& csr, std::span<const float> score,
                    std::span<float> out) {
  APT_CHECK_EQ(score.size(), out.size());
  APT_CHECK_EQ(static_cast<std::int64_t>(score.size()), csr.num_edges());
  ParallelFor(0, csr.num_dst(), [&](std::int64_t d) {
    const std::int64_t lo = csr.indptr[d], hi = csr.indptr[d + 1];
    if (lo == hi) return;
    float maxv = score[static_cast<std::size_t>(lo)];
    for (std::int64_t e = lo + 1; e < hi; ++e) {
      maxv = std::max(maxv, score[static_cast<std::size_t>(e)]);
    }
    double denom = 0.0;
    for (std::int64_t e = lo; e < hi; ++e) {
      denom += std::exp(static_cast<double>(score[static_cast<std::size_t>(e)] - maxv));
    }
    for (std::int64_t e = lo; e < hi; ++e) {
      out[static_cast<std::size_t>(e)] = static_cast<float>(
          std::exp(static_cast<double>(score[static_cast<std::size_t>(e)] - maxv)) / denom);
    }
  }, 256);
}

void SegmentSoftmaxBackward(const CsrView& csr, std::span<const float> out,
                            std::span<const float> grad_out,
                            std::span<float> grad_score) {
  APT_CHECK_EQ(out.size(), grad_out.size());
  APT_CHECK_EQ(out.size(), grad_score.size());
  ParallelFor(0, csr.num_dst(), [&](std::int64_t d) {
    const std::int64_t lo = csr.indptr[d], hi = csr.indptr[d + 1];
    double dot = 0.0;
    for (std::int64_t e = lo; e < hi; ++e) {
      dot += static_cast<double>(out[static_cast<std::size_t>(e)]) *
             grad_out[static_cast<std::size_t>(e)];
    }
    for (std::int64_t e = lo; e < hi; ++e) {
      const std::size_t idx = static_cast<std::size_t>(e);
      grad_score[idx] = out[idx] * (grad_out[idx] - static_cast<float>(dot));
    }
  }, 256);
}

}  // namespace apt
