// Sparse kernel tests: exact small cases, forward/backward consistency,
// and finite-difference gradient checks for the attention kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>

#include "core/random.h"
#include "sampling/block.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "tensor/segment_ops.h"

namespace apt {
namespace {

// A tiny bipartite graph: 3 dst, 4 src.
// dst0 <- {0, 1}; dst1 <- {}; dst2 <- {1, 2, 3}.
struct TinyGraph {
  std::vector<std::int64_t> indptr{0, 2, 2, 5};
  std::vector<std::int64_t> col{0, 1, 1, 2, 3};
  CsrView csr() const { return {indptr, col}; }
};

Tensor RandTensor(std::int64_t r, std::int64_t c, std::uint64_t seed) {
  Tensor t(r, c);
  Rng rng(seed);
  UniformInit(t, rng, -1.0f, 1.0f);
  return t;
}

TEST(SpmmTest, SumExact) {
  TinyGraph g;
  Tensor src(4, 2, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor out(3, 2);
  SpmmSum(g.csr(), src, out);
  EXPECT_FLOAT_EQ(out(0, 0), 4);   // 1 + 3
  EXPECT_FLOAT_EQ(out(1, 0), 0);   // empty row
  EXPECT_FLOAT_EQ(out(2, 1), 18);  // 4 + 6 + 8
}

TEST(SpmmTest, MeanExact) {
  TinyGraph g;
  Tensor src(4, 1, {2, 4, 6, 8});
  Tensor out(3, 1);
  SpmmMean(g.csr(), src, out);
  EXPECT_FLOAT_EQ(out(0, 0), 3);  // (2+4)/2
  EXPECT_FLOAT_EQ(out(1, 0), 0);
  EXPECT_FLOAT_EQ(out(2, 0), 6);  // (4+6+8)/3
}

TEST(SpmmTest, MeanBackwardIsTranspose) {
  // <SpmmMean(x), g> == <x, SpmmMeanBackward(g)> (adjoint identity).
  TinyGraph g;
  const Tensor x = RandTensor(4, 3, 1);
  const Tensor gy = RandTensor(3, 3, 2);
  Tensor y(3, 3);
  SpmmMean(g.csr(), x, y);
  Tensor gx(4, 3);
  SpmmMeanBackward(g.csr(), gy, gx);
  double lhs = 0.0, rhs = 0.0;
  for (std::int64_t i = 0; i < y.numel(); ++i) lhs += y.data()[i] * gy.data()[i];
  for (std::int64_t i = 0; i < x.numel(); ++i) rhs += x.data()[i] * gx.data()[i];
  EXPECT_NEAR(lhs, rhs, 1e-5);
}

TEST(WeightedSpmmTest, MatchesManual) {
  TinyGraph g;
  Tensor src(4, 1, {1, 2, 3, 4});
  const std::vector<float> w{0.5f, 0.25f, 1.0f, 2.0f, 3.0f};
  Tensor out(3, 1);
  SpmmWeightedSum(g.csr(), w, src, out);
  EXPECT_FLOAT_EQ(out(0, 0), 1.0f);   // 0.5*1 + 0.25*2
  EXPECT_FLOAT_EQ(out(2, 0), 20.0f);  // 1*2 + 2*3 + 3*4
}

TEST(WeightedSpmmTest, BackwardGradW) {
  TinyGraph g;
  const Tensor src = RandTensor(4, 3, 5);
  std::vector<float> w{0.1f, 0.2f, 0.3f, 0.4f, 0.5f};
  const Tensor gy = RandTensor(3, 3, 6);
  std::vector<float> gw(5, 0.0f);
  Tensor gsrc(4, 3);
  SpmmWeightedSumBackward(g.csr(), w, src, gy, gw, &gsrc);
  // Finite difference on each edge weight.
  auto loss = [&](const std::vector<float>& ww) {
    Tensor out(3, 3);
    SpmmWeightedSum(g.csr(), ww, src, out);
    double acc = 0.0;
    for (std::int64_t i = 0; i < out.numel(); ++i) acc += out.data()[i] * gy.data()[i];
    return acc;
  };
  const float eps = 1e-3f;
  for (std::size_t e = 0; e < w.size(); ++e) {
    auto wp = w, wm = w;
    wp[e] += eps;
    wm[e] -= eps;
    EXPECT_NEAR(gw[e], (loss(wp) - loss(wm)) / (2 * eps), 1e-3) << "edge " << e;
  }
}

TEST(SddmmTest, AddAndBackward) {
  TinyGraph g;
  const std::vector<float> a_src{1, 2, 3, 4};
  const std::vector<float> a_dst{10, 20, 30};
  std::vector<float> score(5);
  SddmmAdd(g.csr(), a_src, a_dst, score);
  EXPECT_FLOAT_EQ(score[0], 11);  // src0 + dst0
  EXPECT_FLOAT_EQ(score[4], 34);  // src3 + dst2
  std::vector<float> gs{1, 1, 1, 1, 1};
  std::vector<float> ga_src(4, 0), ga_dst(3, 0);
  SddmmAddBackward(g.csr(), gs, ga_src, ga_dst);
  EXPECT_FLOAT_EQ(ga_src[1], 2);  // src1 on two edges
  EXPECT_FLOAT_EQ(ga_dst[2], 3);
  EXPECT_FLOAT_EQ(ga_dst[1], 0);
}

TEST(SegmentSoftmaxTest, RowsSumToOne) {
  TinyGraph g;
  const std::vector<float> score{0.5f, -1.0f, 2.0f, 0.0f, 1.0f};
  std::vector<float> out(5);
  SegmentSoftmax(g.csr(), score, out);
  EXPECT_NEAR(out[0] + out[1], 1.0f, 1e-6f);
  EXPECT_NEAR(out[2] + out[3] + out[4], 1.0f, 1e-6f);
  for (float v : out) EXPECT_GT(v, 0.0f);
}

TEST(SegmentSoftmaxTest, StableUnderLargeLogits) {
  TinyGraph g;
  const std::vector<float> score{1000.0f, 999.0f, 500.0f, 400.0f, 300.0f};
  std::vector<float> out(5);
  SegmentSoftmax(g.csr(), score, out);
  for (float v : out) {
    EXPECT_FALSE(std::isnan(v));
    EXPECT_FALSE(std::isinf(v));
  }
  EXPECT_GT(out[0], out[1]);
}

TEST(SegmentSoftmaxTest, BackwardFiniteDifference) {
  TinyGraph g;
  std::vector<float> score{0.5f, -1.0f, 2.0f, 0.0f, 1.0f};
  std::vector<float> out(5);
  SegmentSoftmax(g.csr(), score, out);
  const std::vector<float> gy{0.3f, -0.7f, 1.1f, 0.2f, -0.4f};
  std::vector<float> gs(5, 0.0f);
  SegmentSoftmaxBackward(g.csr(), out, gy, gs);
  auto loss = [&](const std::vector<float>& s) {
    std::vector<float> o(5);
    SegmentSoftmax(g.csr(), s, o);
    double acc = 0.0;
    for (std::size_t i = 0; i < o.size(); ++i) acc += o[i] * gy[i];
    return acc;
  };
  const float eps = 1e-3f;
  for (std::size_t e = 0; e < score.size(); ++e) {
    auto sp = score, sm = score;
    sp[e] += eps;
    sm[e] -= eps;
    EXPECT_NEAR(gs[e], (loss(sp) - loss(sm)) / (2 * eps), 1e-3) << "edge " << e;
  }
}

TEST(SpmmTest, ShapeMismatchThrows) {
  TinyGraph g;
  Tensor src(4, 2);
  Tensor bad_out(2, 2);
  EXPECT_THROW(SpmmSum(g.csr(), src, bad_out), Error);
}

// ---------------------------------------------------------------------------
// Randomized parity: the transposed parallel backward paths must reproduce
// destination-major serial loops bit-for-bit (the transpose preserves
// per-source accumulation order), through a bare view (scratch transpose)
// and a Block's cached one alike.
// ---------------------------------------------------------------------------

// Random bipartite CSR with empty destinations and a power-law style hot
// source (src 0 draws a large share of edges).
struct RandomGraph {
  std::vector<std::int64_t> indptr;
  std::vector<std::int64_t> col;
  std::int64_t num_src = 0;
  CsrView csr() const { return {indptr, col}; }
};

RandomGraph MakeRandomGraph(std::int64_t num_dst, std::int64_t num_src,
                            std::int64_t max_deg, std::uint64_t seed) {
  RandomGraph g;
  g.num_src = num_src;
  g.indptr.push_back(0);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int64_t> deg_dist(0, max_deg);
  std::uniform_int_distribution<std::int64_t> src_dist(0, num_src - 1);
  std::bernoulli_distribution hot(0.25);  // quarter of edges hit source 0
  for (std::int64_t d = 0; d < num_dst; ++d) {
    std::int64_t deg = deg_dist(rng);
    if (d % 7 == 0) deg = 0;  // sprinkle empty segments
    for (std::int64_t e = 0; e < deg; ++e) {
      g.col.push_back(hot(rng) ? 0 : src_dist(rng));
    }
    g.indptr.push_back(static_cast<std::int64_t>(g.col.size()));
  }
  return g;
}

// Destination-major serial reference.
void RefMeanBackward(const CsrView& csr, const Tensor& gy, Tensor& gx) {
  for (std::int64_t d = 0; d < csr.num_dst(); ++d) {
    const std::int64_t deg = csr.indptr[d + 1] - csr.indptr[d];
    if (deg == 0) continue;
    const float inv = 1.0f / static_cast<float>(deg);
    for (std::int64_t e = csr.indptr[d]; e < csr.indptr[d + 1]; ++e) {
      float* srow = gx.row(csr.col[static_cast<std::size_t>(e)]);
      for (std::int64_t j = 0; j < gx.cols(); ++j) srow[j] += inv * gy.row(d)[j];
    }
  }
}

// Wraps a RandomGraph's structure in a Block so csr() carries the memoized
// transpose cache — the path the training loop takes.
Block AsBlock(const RandomGraph& g) {
  Block b;
  b.num_dst = static_cast<std::int64_t>(g.indptr.size()) - 1;
  b.indptr = g.indptr;
  b.col = g.col;
  b.src_nodes.resize(static_cast<std::size_t>(g.num_src));
  return b;
}

TEST(SpmmBackwardParityTest, SumAndMeanMatchSerialBitExact) {
  const RandomGraph g = MakeRandomGraph(/*num_dst=*/300, /*num_src=*/64,
                                        /*max_deg=*/12, /*seed=*/11);
  const Tensor gy = RandTensor(300, 32, 12);
  const Block block = AsBlock(g);

  Tensor mref(64, 32), mvia_scratch(64, 32), mvia_cache(64, 32);
  RefMeanBackward(g.csr(), gy, mref);
  SpmmMeanBackward(g.csr(), gy, mvia_scratch);
  SpmmMeanBackward(block.csr(), gy, mvia_cache);
  EXPECT_EQ(MaxAbsDiff(mref, mvia_scratch), 0.0f);
  EXPECT_EQ(MaxAbsDiff(mref, mvia_cache), 0.0f);
}

TEST(SpmmBackwardParityTest, TinyGraphTakesSerialPathAndAccumulates) {
  // A tiny problem: a bare view (scratch transpose) and a cached view must
  // both *accumulate* into non-zero grad_src, bit-identical to the
  // destination-major reference.
  const RandomGraph g = MakeRandomGraph(40, 16, 4, 21);
  const Tensor gy = RandTensor(40, 3, 22);
  const Block block = AsBlock(g);
  const Tensor init = RandTensor(16, 3, 23);
  Tensor ref = init;
  Tensor a = init;
  Tensor b = init;
  RefMeanBackward(g.csr(), gy, ref);
  SpmmMeanBackward(g.csr(), gy, a);
  SpmmMeanBackward(block.csr(), gy, b);
  EXPECT_GT(MaxAbsDiff(ref, init), 0.0f);
  EXPECT_EQ(MaxAbsDiff(ref, a), 0.0f);
  EXPECT_EQ(MaxAbsDiff(ref, b), 0.0f);
}

TEST(SpmmBackwardParityTest, WeightedBackwardMatchesSerial) {
  const RandomGraph g = MakeRandomGraph(200, 48, 10, 31);
  const std::int64_t ne = g.csr().num_edges();
  const Tensor src = RandTensor(48, 24, 32);
  const Tensor gy = RandTensor(200, 24, 33);
  std::vector<float> w(static_cast<std::size_t>(ne));
  Rng wr(34);
  for (auto& v : w) v = wr.NextUniform(-1.0f, 1.0f);

  // Destination-major serial reference.
  std::vector<float> gw_ref(w.size(), 0.0f);
  Tensor gsrc_ref(48, 24);
  for (std::int64_t d = 0; d < g.csr().num_dst(); ++d) {
    for (std::int64_t e = g.indptr[static_cast<std::size_t>(d)];
         e < g.indptr[static_cast<std::size_t>(d) + 1]; ++e) {
      const std::int64_t s = g.col[static_cast<std::size_t>(e)];
      float acc = 0.0f;
      for (std::int64_t j = 0; j < 24; ++j) acc += gy.row(d)[j] * src.row(s)[j];
      gw_ref[static_cast<std::size_t>(e)] += acc;
      for (std::int64_t j = 0; j < 24; ++j) {
        gsrc_ref.row(s)[j] += w[static_cast<std::size_t>(e)] * gy.row(d)[j];
      }
    }
  }

  const Block block = AsBlock(g);
  for (const CsrView& view : {g.csr(), block.csr()}) {
    std::vector<float> gw(w.size(), 0.0f);
    Tensor gsrc(48, 24);
    SpmmWeightedSumBackward(view, w, src, gy, gw, &gsrc);
    EXPECT_EQ(MaxAbsDiff(gsrc_ref, gsrc), 0.0f);
    for (std::size_t e = 0; e < w.size(); ++e) {
      ASSERT_EQ(gw_ref[e], gw[e]) << "edge " << e;
    }
  }
}

TEST(SddmmTest, BackwardParityOnRandomGraph) {
  const RandomGraph g = MakeRandomGraph(150, 40, 8, 41);
  const std::int64_t ne = g.csr().num_edges();
  std::vector<float> gs(static_cast<std::size_t>(ne));
  Rng r(42);
  for (auto& v : gs) v = r.NextUniform(-1.0f, 1.0f);

  // Destination-major serial reference: with zeroed outputs, each
  // per-source and per-destination sum runs in the transpose's edge order.
  std::vector<float> ga_src_ref(40, 0.0f), ga_dst_ref(150, 0.0f);
  for (std::int64_t d = 0; d < g.csr().num_dst(); ++d) {
    for (std::int64_t e = g.indptr[static_cast<std::size_t>(d)];
         e < g.indptr[static_cast<std::size_t>(d) + 1]; ++e) {
      const float v = gs[static_cast<std::size_t>(e)];
      ga_src_ref[static_cast<std::size_t>(g.col[static_cast<std::size_t>(e)])] += v;
      ga_dst_ref[static_cast<std::size_t>(d)] += v;
    }
  }

  const Block block = AsBlock(g);
  for (const CsrView& view : {g.csr(), block.csr()}) {
    std::vector<float> ga_src(40, 0.0f), ga_dst(150, 0.0f);
    SddmmAddBackward(view, gs, ga_src, ga_dst);
    for (std::size_t i = 0; i < ga_src.size(); ++i) {
      ASSERT_EQ(ga_src_ref[i], ga_src[i]) << "src " << i;
    }
    for (std::size_t i = 0; i < ga_dst.size(); ++i) {
      ASSERT_EQ(ga_dst_ref[i], ga_dst[i]) << "dst " << i;
    }
  }
}

TEST(CsrTransposeTest, StructureRoundTrips) {
  const RandomGraph g = MakeRandomGraph(100, 32, 6, 51);
  const CsrTranspose t = BuildCsrTranspose(g.csr(), 32);
  ASSERT_EQ(t.num_src, 32);
  ASSERT_EQ(static_cast<std::int64_t>(t.indptr.size()), 33);
  ASSERT_EQ(t.dst.size(), g.col.size());
  ASSERT_EQ(t.eid.size(), g.col.size());
  EXPECT_EQ(t.indptr.back(), static_cast<std::int64_t>(g.col.size()));
  std::vector<int> edge_seen(g.col.size(), 0);
  for (std::int64_t s = 0; s < 32; ++s) {
    for (std::int64_t p = t.indptr[static_cast<std::size_t>(s)];
         p < t.indptr[static_cast<std::size_t>(s) + 1]; ++p) {
      const std::int64_t e = t.eid[static_cast<std::size_t>(p)];
      edge_seen[static_cast<std::size_t>(e)]++;
      // eid maps back to an original edge owned by this source...
      EXPECT_EQ(g.col[static_cast<std::size_t>(e)], s);
      // ...whose destination matches, and destinations ascend within a source
      // (the property that makes backward accumulation order bit-identical).
      const std::int64_t d = t.dst[static_cast<std::size_t>(p)];
      EXPECT_TRUE(g.indptr[static_cast<std::size_t>(d)] <= e &&
                  e < g.indptr[static_cast<std::size_t>(d) + 1]);
      if (p > t.indptr[static_cast<std::size_t>(s)]) {
        EXPECT_LE(t.dst[static_cast<std::size_t>(p) - 1], d);
      }
    }
  }
  for (int c : edge_seen) EXPECT_EQ(c, 1);
}

TEST(CsrTransposeTest, CacheMemoizesAndRebuildsOnShapeChange) {
  const RandomGraph g = MakeRandomGraph(60, 20, 5, 61);
  CsrTransposeCache cache;
  const CsrTranspose& t1 = cache.Get(g.csr(), 20);
  const CsrTranspose& t2 = cache.Get(g.csr(), 20);
  EXPECT_EQ(&t1, &t2);  // memoized
  const CsrTranspose& t3 = cache.Get(g.csr(), 24);  // num_src changed
  EXPECT_EQ(t3.num_src, 24);
  EXPECT_THROW(BuildCsrTranspose(g.csr(), 1), Error);  // col out of range
}

}  // namespace
}  // namespace apt
