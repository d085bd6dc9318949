// Tests for the CSR graph, builders, generators, datasets, and statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <set>
#include <string>
#include <utility>

#include "graph/csr_graph.h"
#include "graph/dataset.h"
#include "graph/generators.h"
#include "graph/stats.h"
#include "runtime/parallel_for.h"

namespace apt {
namespace {

TEST(CsrGraphTest, BuildFromEdgeList) {
  const std::vector<NodeId> src{0, 1, 2, 0};
  const std::vector<NodeId> dst{1, 2, 0, 2};
  const CsrGraph g = BuildCsr(3, src, dst, /*symmetrize=*/false);
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_edges(), 4);
  // In-neighbors of 2 are {0, 1}.
  const auto n2 = g.Neighbors(2);
  ASSERT_EQ(n2.size(), 2u);
  EXPECT_EQ(n2[0], 0);
  EXPECT_EQ(n2[1], 1);
}

TEST(CsrGraphTest, SymmetrizeAddsReverseEdges) {
  const std::vector<NodeId> src{0};
  const std::vector<NodeId> dst{1};
  const CsrGraph g = BuildCsr(2, src, dst, /*symmetrize=*/true);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_EQ(g.Neighbors(0)[0], 1);
  EXPECT_EQ(g.Neighbors(1)[0], 0);
}

TEST(CsrGraphTest, DeduplicatesParallelEdges) {
  const std::vector<NodeId> src{0, 0, 0};
  const std::vector<NodeId> dst{1, 1, 1};
  const CsrGraph g = BuildCsr(2, src, dst, false);
  EXPECT_EQ(g.num_edges(), 1);
}

TEST(CsrGraphTest, NeighborsSorted) {
  const std::vector<NodeId> src{3, 1, 2};
  const std::vector<NodeId> dst{0, 0, 0};
  const CsrGraph g = BuildCsr(4, src, dst, false);
  const auto n = g.Neighbors(0);
  EXPECT_TRUE(std::is_sorted(n.begin(), n.end()));
}

TEST(CsrGraphTest, OutOfRangeThrows) {
  const CsrGraph g = BuildCsr(2, std::vector<NodeId>{0}, std::vector<NodeId>{1}, false);
  EXPECT_THROW(g.Neighbors(2), Error);
  EXPECT_THROW(BuildCsr(2, std::vector<NodeId>{5}, std::vector<NodeId>{0}, false), Error);
}

// The construction BuildCsr's per-row counting sort must reproduce exactly:
// one global sort + unique of the (dst, src) pairs.
CsrGraph ReferenceCsr(NodeId num_nodes, const std::vector<NodeId>& src,
                      const std::vector<NodeId>& dst, bool symmetrize) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (std::size_t i = 0; i < src.size(); ++i) {
    pairs.emplace_back(dst[i], src[i]);
    if (symmetrize && src[i] != dst[i]) pairs.emplace_back(src[i], dst[i]);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  std::vector<EdgeId> indptr(static_cast<std::size_t>(num_nodes) + 1, 0);
  std::vector<NodeId> indices;
  for (const auto& [d, s] : pairs) {
    ++indptr[static_cast<std::size_t>(d) + 1];
    indices.push_back(s);
  }
  std::partial_sum(indptr.begin(), indptr.end(), indptr.begin());
  return CsrGraph(std::move(indptr), std::move(indices));
}

void ExpectSameCsr(const CsrGraph& got, const CsrGraph& want) {
  EXPECT_TRUE(std::ranges::equal(got.indptr(), want.indptr()));
  EXPECT_TRUE(std::ranges::equal(got.indices(), want.indices()));
}

// Seeded edge lists with duplicates, self-loops and isolated nodes, built at
// one lane and at all lanes; the largest case crosses every parallel grain.
TEST(CsrGraphTest, CountingSortMatchesSortUnique) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    const NodeId n = 4 + static_cast<NodeId>(rng.NextBelow(seed % 2 == 1 ? 40 : 6000));
    const std::size_t m = seed == 6 ? std::size_t{1} << 17 : rng.NextBelow(30000);
    // Ids come from the low three quarters only, so the top quarter stays
    // isolated; a small hub set makes duplicates frequent.
    const auto id = [&] {
      const NodeId span = rng.NextBelow(2) == 0 ? std::min<NodeId>(8, n) : n - n / 4;
      return static_cast<NodeId>(rng.NextBelow(static_cast<std::uint64_t>(span)));
    };
    std::vector<NodeId> src(m), dst(m);
    for (std::size_t i = 0; i < m; ++i) {
      src[i] = id();
      const std::uint64_t kind = rng.NextBelow(8);
      dst[i] = kind == 0 ? src[i] : kind == 1 && i > 0 ? dst[i - 1] : id();
      if (kind == 1 && i > 0) src[i] = src[i - 1];
    }
    for (const bool symmetrize : {false, true}) {
      const CsrGraph want = ReferenceCsr(n, src, dst, symmetrize);
      if (m > 100) {  // the case covers what it claims to
        ASSERT_LT(want.num_edges(), static_cast<EdgeId>(m) * (symmetrize ? 2 : 1));
        ASSERT_EQ(want.Degree(n - 1), 0);
        bool self_loop = false;
        for (NodeId v = 0; v < n; ++v) {
          const auto nb = want.Neighbors(v);
          self_loop |= std::binary_search(nb.begin(), nb.end(), v);
        }
        ASSERT_TRUE(self_loop);
      }
      {
        ScopedParallelismLimit one_lane(1);
        ExpectSameCsr(BuildCsr(n, src, dst, symmetrize), want);
      }
      ExpectSameCsr(BuildCsr(n, src, dst, symmetrize), want);
    }
  }
}

TEST(CsrGraphTest, ParallelValidationReportsFirstBadEdge) {
  const std::size_t m = std::size_t{1} << 17;
  std::vector<NodeId> src(m, 1), dst(m, 2);
  // The later bad edge's chunk reaches it last, so a report that kept the
  // most recent find instead of the lowest would name it.
  dst[10] = -3;
  src[m - 10] = 7;
  try {
    BuildCsr(5, src, dst, true);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("dst -3"), std::string::npos) << e.what();
  }
}

TEST(CsrGraphTest, TopologyBytesPositive) {
  const CsrGraph g = ErdosRenyi(100, 500, Rng(1));
  EXPECT_GT(g.TopologyBytes(), 0);
}

TEST(GeneratorTest, ErdosRenyiBasics) {
  const CsrGraph g = ErdosRenyi(500, 2000, Rng(3));
  EXPECT_EQ(g.num_nodes(), 500);
  EXPECT_GT(g.num_edges(), 3000);  // ~2x after symmetrization minus dedupe
  EXPECT_LE(g.num_edges(), 4000);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (NodeId u : g.Neighbors(v)) EXPECT_NE(u, v);  // no self loops
  }
}

TEST(GeneratorTest, ZipfCommunityRespectsIntraProb) {
  ZipfCommunityParams p;
  p.num_nodes = 4000;
  p.num_edges = 40000;
  p.num_communities = 8;
  p.zipf_exponent = 0.5;
  p.intra_prob = 0.95;
  const CsrGraph g = ZipfCommunityGraph(p);
  EdgeId intra = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto cv = CommunityOf(v, p.num_nodes, p.num_communities);
    for (NodeId u : g.Neighbors(v)) {
      intra += CommunityOf(u, p.num_nodes, p.num_communities) == cv;
    }
  }
  const double frac = static_cast<double>(intra) / static_cast<double>(g.num_edges());
  EXPECT_GT(frac, 0.85);
}

TEST(GeneratorTest, ZipfExponentControlsDegreeSkew) {
  ZipfCommunityParams flat, skewed;
  flat.num_nodes = skewed.num_nodes = 4000;
  flat.num_edges = skewed.num_edges = 40000;
  flat.zipf_exponent = 0.1;
  skewed.zipf_exponent = 1.1;
  const DegreeStats sf = ComputeDegreeStats(ZipfCommunityGraph(flat));
  const DegreeStats ss = ComputeDegreeStats(ZipfCommunityGraph(skewed));
  EXPECT_GT(ss.max_degree, 2 * sf.max_degree);
}

TEST(GeneratorTest, ZipfDeterministicBySeed) {
  ZipfCommunityParams p;
  p.num_nodes = 1000;
  p.num_edges = 5000;
  p.seed = 9;
  const CsrGraph a = ZipfCommunityGraph(p);
  const CsrGraph b = ZipfCommunityGraph(p);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_TRUE(std::equal(a.indices().begin(), a.indices().end(), b.indices().begin()));
}

TEST(GeneratorTest, RmatHeavyTail) {
  const CsrGraph g = Rmat(12, 40000, 0.57, 0.19, 0.19, Rng(5));
  const DegreeStats s = ComputeDegreeStats(g);
  EXPECT_GT(s.max_degree, 20 * static_cast<EdgeId>(s.mean_degree));
}

TEST(GeneratorTest, RmatSameAtOneLaneAndAllLanes) {
  const CsrGraph all_lanes = Rmat(12, 1 << 16, 0.57, 0.19, 0.19, Rng(7));
  ScopedParallelismLimit one_lane(1);
  ExpectSameCsr(Rmat(12, 1 << 16, 0.57, 0.19, 0.19, Rng(7)), all_lanes);
}

TEST(GeneratorTest, RejectsNegativeCounts) {
  EXPECT_THROW(Rmat(8, -1, 0.57, 0.19, 0.19, Rng(1)), Error);
  EXPECT_THROW(Rmat(8, 100, 0.7, -0.1, 0.2, Rng(1)), Error);
  EXPECT_THROW(ErdosRenyi(10, -1, Rng(1)), Error);
  EXPECT_THROW(ErdosRenyi(-10, 5, Rng(1)), Error);
  ZipfCommunityParams p;
  p.num_nodes = 100;
  p.num_edges = -1;
  EXPECT_THROW(ZipfCommunityGraph(p), Error);
  p.num_nodes = -100;
  p.num_edges = 10;
  EXPECT_THROW(ZipfCommunityGraph(p), Error);
  EXPECT_THROW(BuildCsr(-1, std::vector<NodeId>{}, std::vector<NodeId>{}, false), Error);
}

// FNV-1a over the bytes of indptr then indices.
std::uint64_t GraphDigest(const CsrGraph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto eat = [&h](auto values) {
    for (const auto x : values) {
      unsigned char bytes[sizeof(x)];
      std::memcpy(bytes, &x, sizeof(x));
      for (const unsigned char b : bytes) h = (h ^ b) * 0x100000001b3ULL;
    }
  };
  eat(g.indptr());
  eat(g.indices());
  return h;
}

// Digests recorded with the serial draw loop and the global pair sort that
// the parallel builders replaced: the graphs must not change by one bit.
TEST(GraphDigestTest, ScaleSweepSmokeRmatPinned) {
  EXPECT_EQ(GraphDigest(Rmat(16, 1 << 18, 0.57, 0.19, 0.19, Rng(12))),
            0x1a881165048b4e00ULL);
}

TEST(GraphDigestTest, PsLikeDatasetGraphPinned) {
  EXPECT_EQ(GraphDigest(MakeDataset(PsLikeParams(1.0)).graph), 0x16b2c31edd31d0daULL);
}

TEST(CommunityOfTest, ContiguousBlocks) {
  EXPECT_EQ(CommunityOf(0, 100, 4), 0);
  EXPECT_EQ(CommunityOf(25, 100, 4), 1);
  EXPECT_EQ(CommunityOf(99, 100, 4), 3);
}

TEST(DatasetTest, BuildsConsistentPieces) {
  DatasetParams p;
  p.num_nodes = 3000;
  p.num_edges = 15000;
  p.feature_dim = 16;
  p.num_classes = 4;
  const Dataset ds = MakeDataset(p);
  EXPECT_EQ(ds.graph.num_nodes(), 3000);
  EXPECT_EQ(ds.features.rows(), 3000);
  EXPECT_EQ(ds.features.cols(), 16);
  EXPECT_EQ(ds.labels.size(), 3000u);
  for (auto l : ds.labels) {
    EXPECT_GE(l, 0);
    EXPECT_LT(l, 4);
  }
  // Splits are disjoint and cover all nodes.
  std::set<NodeId> all;
  for (auto v : ds.train_nodes) all.insert(v);
  for (auto v : ds.val_nodes) EXPECT_TRUE(all.insert(v).second);
  for (auto v : ds.test_nodes) EXPECT_TRUE(all.insert(v).second);
  EXPECT_EQ(all.size(), 3000u);
  EXPECT_NEAR(static_cast<double>(ds.train_nodes.size()), 300.0, 1.0);
}

TEST(DatasetTest, PresetsMatchPaperFeatureDims) {
  EXPECT_EQ(PsLikeParams().feature_dim, 128);
  EXPECT_EQ(FsLikeParams().feature_dim, 256);
  EXPECT_EQ(ImLikeParams().feature_dim, 128);
  // Skew ordering knob: PS most skewed, FS least (paper Table 3).
  EXPECT_GT(PsLikeParams().zipf_exponent, ImLikeParams().zipf_exponent);
  EXPECT_GT(ImLikeParams().zipf_exponent, FsLikeParams().zipf_exponent);
}

TEST(DatasetTest, WithFeatureDimOverride) {
  const DatasetParams p = WithFeatureDim(PsLikeParams(0.1), 64);
  EXPECT_EQ(p.feature_dim, 64);
  const Dataset ds = MakeDataset(p);
  EXPECT_EQ(ds.feature_dim(), 64);
}

TEST(StatsTest, DegreeStats) {
  const std::vector<NodeId> src{0, 0, 0};
  const std::vector<NodeId> dst{1, 2, 3};
  const CsrGraph g = BuildCsr(5, src, dst, false);
  const DegreeStats s = ComputeDegreeStats(g);
  EXPECT_EQ(s.min_degree, 0);
  EXPECT_EQ(s.max_degree, 1);
  EXPECT_EQ(s.num_isolated, 2);  // node 0 and node 4 have no in-edges
  EXPECT_NEAR(s.mean_degree, 0.6, 1e-9);
}

TEST(StatsTest, AccessSkewBucketsSumToOne) {
  std::vector<std::int64_t> counts(1000);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = static_cast<std::int64_t>(1000 / (i + 1));
  }
  const auto buckets = ComputeAccessSkew(counts);
  ASSERT_EQ(buckets.size(), 6u);
  double total = 0.0;
  for (const auto& b : buckets) total += b.access_share;
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Zipf-ish counts: the top 1% carries far more than a uniform share.
  EXPECT_GT(buckets[0].access_share, 0.05);
  EXPECT_GT(buckets[0].access_share, buckets[4].access_share);
}

TEST(StatsTest, UniformCountsGiveProportionalShares) {
  std::vector<std::int64_t> counts(1000, 7);
  const auto buckets = ComputeAccessSkew(counts);
  EXPECT_NEAR(buckets[0].access_share, 0.01, 1e-9);   // <1%
  EXPECT_NEAR(buckets[5].access_share, 0.50, 1e-9);   // 50~100%
}

}  // namespace
}  // namespace apt
