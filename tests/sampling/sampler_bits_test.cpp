// Bit-identity of the neighbor sampler.
//
// The digests below were recorded with the hash-map SampleLayer that the
// flat id table replaced, and the tail graph's with the scalar reservoir
// draws that the AVX-512 draws run beside: every Block (src_nodes, indptr,
// col) and the rng's position after Sample must not move by one bit,
// because the trainers, the dry-run and the serving engine all charge and
// compute from these blocks. The property test compares against an in-test
// copy of that hash-map sampler on random graphs, at one lane and at all
// lanes.
#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/dataset.h"
#include "graph/generators.h"
#include "runtime/parallel_for.h"
#include "sampling/neighbor_sampler.h"

namespace apt {
namespace {

// FNV-1a over every block's src_nodes, indptr and col (blocks in order),
// then the rng's next draw after Sample.
std::uint64_t BatchDigest(const SampledBatch& batch, Rng& rng) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto eat = [&h](const auto& values) {
    for (const auto x : values) {
      unsigned char bytes[sizeof(x)];
      std::memcpy(bytes, &x, sizeof(x));
      for (const unsigned char b : bytes) h = (h ^ b) * 0x100000001b3ULL;
    }
  };
  for (const Block& b : batch.blocks) {
    eat(b.src_nodes);
    eat(b.indptr);
    eat(b.col);
  }
  eat(std::vector<std::uint64_t>{rng.Next()});
  return h;
}

std::vector<NodeId> DrawSeeds(NodeId num_nodes, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<NodeId> seeds(n);
  for (NodeId& s : seeds) {
    s = static_cast<NodeId>(rng.NextBelow(static_cast<std::uint64_t>(num_nodes)));
  }
  return seeds;
}

std::uint64_t SampleDigest(const CsrGraph& g, std::vector<int> fanouts,
                           const std::vector<NodeId>& seeds, std::uint64_t rng_seed) {
  const NeighborSampler sampler(g, std::move(fanouts));
  Rng rng(rng_seed);
  const SampledBatch batch = sampler.Sample(seeds, rng);
  return BatchDigest(batch, rng);
}

const CsrGraph& PsLikeGraph() {
  static const Dataset ds = MakeDataset(PsLikeParams(1.0));
  return ds.graph;
}

const CsrGraph& Rmat16() {
  static const CsrGraph g = Rmat(16, 1 << 18, 0.57, 0.19, 0.19, Rng(12));
  return g;
}

TEST(SamplerDigestTest, PsLikeThreeLayers128Seeds) {
  const CsrGraph& g = PsLikeGraph();
  EXPECT_EQ(SampleDigest(g, {10, 10, 10}, DrawSeeds(g.num_nodes(), 128, 31), 7),
            0x6b96000b18d8b09bULL);
}

TEST(SamplerDigestTest, Rmat16TwoLayers16Seeds) {
  const CsrGraph& g = Rmat16();
  EXPECT_EQ(SampleDigest(g, {10, 10}, DrawSeeds(g.num_nodes(), 16, 32), 8), 0x71a956b9841e8867ULL);
}

TEST(SamplerDigestTest, OneSeedServingShape) {
  EXPECT_EQ(SampleDigest(PsLikeGraph(), {10, 10}, {4242}, 9), 0xfb051d3243064ea9ULL);
  EXPECT_EQ(SampleDigest(Rmat16(), {10, 10}, {0}, 9), 0xf72a6c4cff5d124bULL);
}

TEST(SamplerDigestTest, DuplicateSeeds) {
  const std::vector<NodeId> seeds{5, 5, 9, 0, 5, 9, 0, 77, 77};
  EXPECT_EQ(SampleDigest(Rmat16(), {10, 10}, seeds, 10), 0x579dcd52d0a4c409ULL);
  EXPECT_EQ(SampleDigest(PsLikeGraph(), {4, 3}, seeds, 11), 0xa859ef29bc101d62ULL);
}

// Node 0 has no in-neighbors, node 1 exactly `fanout` (3), node 2 one more
// than the fanout, node 3 a hub; the others form a ring.
TEST(SamplerDigestTest, DegreeZeroAndDegreeEqualToFanout) {
  std::vector<NodeId> src, dst;
  const auto edge = [&](NodeId u, NodeId v) {
    src.push_back(u);
    dst.push_back(v);
  };
  for (NodeId u : {4, 5, 6}) edge(u, 1);
  for (NodeId u : {1, 5, 7, 8}) edge(u, 2);
  for (NodeId u = 4; u < 20; ++u) edge(u, 3);
  for (NodeId v = 4; v < 20; ++v) edge(v == 19 ? 4 : v + 1, v);
  const CsrGraph g = BuildCsr(20, src, dst, false);
  ASSERT_EQ(g.Degree(0), 0);
  ASSERT_EQ(g.Degree(1), 3);
  const std::vector<NodeId> seeds{0, 1, 2, 3, 0};
  EXPECT_EQ(SampleDigest(g, {3, 3}, seeds, 12), 0xa87c60315e606951ULL);
  EXPECT_EQ(SampleDigest(g, {3}, {0}, 13), 0x98a3bffa7bdc0011ULL);
}

// Rows 0..23 have 11..34 in-neighbors, one to 24 past a fanout of 10, so the
// draws of one row end on every tail length of an 8-wide vector three times
// over; row 24 is a hub of 5003. The other rows have 0 to 29 neighbors.
const CsrGraph& TailGraph() {
  static const CsrGraph g = [] {
    constexpr NodeId kNodes = 6000;
    Rng rng(21);
    std::vector<NodeId> src, dst;
    std::vector<NodeId> perm(kNodes);
    for (NodeId v = 0; v < kNodes; ++v) perm[static_cast<std::size_t>(v)] = v;
    for (NodeId v = 0; v < 24; ++v) {
      rng.Shuffle(perm);
      for (NodeId t = 0; t < 11 + v; ++t) {
        src.push_back(perm[static_cast<std::size_t>(t)]);
        dst.push_back(v);
      }
    }
    rng.Shuffle(perm);
    for (NodeId t = 0; t < 5003; ++t) {
      src.push_back(perm[static_cast<std::size_t>(t)]);
      dst.push_back(24);
    }
    for (NodeId v = 25; v < kNodes; ++v) {
      const auto deg = static_cast<NodeId>(rng.NextBelow(30));
      for (NodeId t = 0; t < deg; ++t) {
        src.push_back(static_cast<NodeId>(rng.NextBelow(kNodes)));
        dst.push_back(v);
      }
    }
    return BuildCsr(kNodes, src, dst, false);
  }();
  return g;
}

std::vector<NodeId> Iota(NodeId n) {
  std::vector<NodeId> v(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) v[static_cast<std::size_t>(i)] = i;
  return v;
}

TEST(SamplerDigestTest, EveryDrawTailLengthAndAHub) {
  const CsrGraph& g = TailGraph();
  ASSERT_EQ(g.Degree(0), 11);
  ASSERT_EQ(g.Degree(23), 34);
  ASSERT_EQ(g.Degree(24), 5003);
  EXPECT_EQ(SampleDigest(g, {10}, Iota(25), 14), 0xeba4717a99183472ULL);
  EXPECT_EQ(SampleDigest(g, {10, 10}, Iota(25), 15), 0xa46c8c37016ba70eULL);
  EXPECT_EQ(SampleDigest(g, {3, 7}, {24}, 16), 0x23ecb02d0f4eee0aULL);
  EXPECT_EQ(SampleDigest(g, {1, 1, 1}, {24, 24, 5, 24}, 17), 0xd7adc97c56873c54ULL);
}

// Sample leaves the caller's generator exactly one draw further per neighbor
// past the fanout of every frontier row, in every layer.
TEST(SamplerDigestTest, CallerRngContinuesPastEveryDraw) {
  for (const CsrGraph* g : {&TailGraph(), &Rmat16()}) {
    for (const std::vector<int>& fanouts :
         {std::vector<int>{10}, std::vector<int>{10, 5}, std::vector<int>{1, 3, 2}}) {
      const NeighborSampler sampler(*g, fanouts);
      const std::vector<NodeId> seeds =
          g == &TailGraph() ? Iota(25) : DrawSeeds(g->num_nodes(), 16, 33);
      Rng rng(18);
      const SampledBatch batch = sampler.Sample(seeds, rng);
      std::uint64_t draws = 0;
      for (std::size_t k = 0; k < fanouts.size(); ++k) {
        const Block& b = batch.blocks[fanouts.size() - 1 - k];
        for (std::int64_t i = 0; i < b.num_dst; ++i) {
          const std::int64_t deg = g->Degree(b.src_nodes[static_cast<std::size_t>(i)]);
          if (deg > fanouts[k]) draws += static_cast<std::uint64_t>(deg - fanouts[k]);
        }
      }
      ASSERT_GT(draws, 0u);
      Rng want = Rng(18).Skipped(draws);
      for (int t = 0; t < 3; ++t) EXPECT_EQ(rng.Next(), want.Next()) << "draw " << t;
    }
  }
}

// ---------------------------------------------------------------------------
// Reference: the hash-map sampler the flat table replaced, verbatim in its
// arithmetic (same draws, same first-seen local ids).

Block RefSampleLayer(const CsrGraph& graph, std::span<const NodeId> dst, int fanout,
                     Rng& rng) {
  Block block;
  block.num_dst = static_cast<std::int64_t>(dst.size());
  block.src_nodes.assign(dst.begin(), dst.end());
  block.indptr.push_back(0);
  std::unordered_map<NodeId, std::int64_t> local;
  for (std::size_t i = 0; i < dst.size(); ++i) {
    local.emplace(dst[i], static_cast<std::int64_t>(i));
  }
  auto local_id = [&](NodeId v) {
    auto [it, inserted] = local.try_emplace(v, block.num_src());
    if (inserted) block.src_nodes.push_back(v);
    return it->second;
  };
  std::vector<NodeId> reservoir(static_cast<std::size_t>(fanout));
  for (NodeId v : dst) {
    const auto nbrs = graph.Neighbors(v);
    const auto deg = static_cast<std::int64_t>(nbrs.size());
    if (deg <= fanout) {
      for (NodeId u : nbrs) block.col.push_back(local_id(u));
    } else {
      for (std::int64_t i = 0; i < fanout; ++i) {
        reservoir[static_cast<std::size_t>(i)] = nbrs[static_cast<std::size_t>(i)];
      }
      for (std::int64_t i = fanout; i < deg; ++i) {
        const auto j =
            static_cast<std::int64_t>(rng.NextBelow(static_cast<std::uint64_t>(i + 1)));
        if (j < fanout) {
          reservoir[static_cast<std::size_t>(j)] = nbrs[static_cast<std::size_t>(i)];
        }
      }
      for (std::int64_t i = 0; i < fanout; ++i) {
        block.col.push_back(local_id(reservoir[static_cast<std::size_t>(i)]));
      }
    }
    block.indptr.push_back(block.num_edges());
  }
  return block;
}

SampledBatch RefSample(const CsrGraph& graph, const std::vector<int>& fanouts,
                       std::span<const NodeId> seeds, Rng& rng) {
  SampledBatch batch;
  batch.seeds.assign(seeds.begin(), seeds.end());
  std::vector<Block> outward;
  std::vector<NodeId> frontier(seeds.begin(), seeds.end());
  for (int f : fanouts) {
    Block b = RefSampleLayer(graph, frontier, f, rng);
    frontier = b.src_nodes;
    outward.push_back(std::move(b));
  }
  batch.blocks.assign(std::make_move_iterator(outward.rbegin()),
                      std::make_move_iterator(outward.rend()));
  return batch;
}

void ExpectSameBatch(const SampledBatch& a, const SampledBatch& b) {
  EXPECT_EQ(a.seeds, b.seeds);
  ASSERT_EQ(a.blocks.size(), b.blocks.size());
  for (std::size_t k = 0; k < a.blocks.size(); ++k) {
    EXPECT_EQ(a.blocks[k].num_dst, b.blocks[k].num_dst) << "block " << k;
    EXPECT_EQ(a.blocks[k].src_nodes, b.blocks[k].src_nodes) << "block " << k;
    EXPECT_EQ(a.blocks[k].indptr, b.blocks[k].indptr) << "block " << k;
    EXPECT_EQ(a.blocks[k].col, b.blocks[k].col) << "block " << k;
  }
}

// One random case: a graph (small ones saturate the table's num_nodes bound,
// so every node shows up in a frontier), fanouts and seed lists per device.
struct Case {
  CsrGraph graph;
  std::vector<int> fanouts;
  std::vector<std::vector<NodeId>> seeds_per_device;
};

Case RandomCase(std::uint64_t seed) {
  Rng rng(seed);
  const auto n = static_cast<NodeId>(1 + rng.NextBelow(seed % 3 == 0 ? 40 : 3000));
  const auto e = static_cast<EdgeId>(rng.NextBelow(static_cast<std::uint64_t>(n) * 12 + 1));
  Case c{ErdosRenyi(n, e, rng.Fork(1)), {}, {}};
  const auto layers = 1 + rng.NextBelow(3);
  for (std::uint64_t k = 0; k < layers; ++k) {
    c.fanouts.push_back(static_cast<int>(1 + rng.NextBelow(15)));
  }
  const auto devices = 1 + rng.NextBelow(6);
  for (std::uint64_t d = 0; d < devices; ++d) {
    // Some devices get no seeds (the tail of an epoch's queue).
    c.seeds_per_device.push_back(
        DrawSeeds(n, rng.NextBelow(4) == 0 ? 0 : 1 + rng.NextBelow(300), seed * 31 + d));
  }
  return c;
}

// Samples every device in a ParallelFor with a forked stream per device, as
// the trainers and the dry-run do, and checks each against the reference.
void CheckCaseAcrossDevices(const Case& c, std::uint64_t seed) {
  const NeighborSampler sampler(c.graph, c.fanouts);
  const Rng step_rng(seed);
  const auto devices = static_cast<std::int64_t>(c.seeds_per_device.size());
  std::vector<SampledBatch> got(c.seeds_per_device.size());
  std::vector<std::uint64_t> got_next(c.seeds_per_device.size());
  ParallelFor(
      0, devices,
      [&](std::int64_t d) {
        const auto i = static_cast<std::size_t>(d);
        Rng rng = step_rng.Fork(i);
        got[i] = sampler.Sample(c.seeds_per_device[i], rng);
        got_next[i] = rng.Next();
      },
      /*grain=*/1);
  for (std::size_t i = 0; i < c.seeds_per_device.size(); ++i) {
    Rng rng = step_rng.Fork(i);
    const SampledBatch want = RefSample(c.graph, c.fanouts, c.seeds_per_device[i], rng);
    SCOPED_TRACE("seed " + std::to_string(seed) + " device " + std::to_string(i));
    ExpectSameBatch(got[i], want);
    EXPECT_EQ(got_next[i], rng.Next());
  }
}

TEST(SamplerPropertyTest, MatchesHashMapReferenceAtOneLane) {
  const ScopedParallelismLimit one_lane(1);
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    CheckCaseAcrossDevices(RandomCase(seed), seed);
  }
}

TEST(SamplerPropertyTest, MatchesHashMapReferenceAtAllLanes) {
  for (std::uint64_t seed = 41; seed <= 80; ++seed) {
    CheckCaseAcrossDevices(RandomCase(seed), seed);
  }
}

// Every fanout from 1 to 12 on the tail graph: the draws past the fanout end
// on each vector tail length at many row offsets, the hub included.
TEST(SamplerPropertyTest, MatchesHashMapReferenceOnEveryTailLength) {
  const CsrGraph& g = TailGraph();
  const std::vector<NodeId> seeds = Iota(25);
  for (int fanout = 1; fanout <= 12; ++fanout) {
    SCOPED_TRACE("fanout " + std::to_string(fanout));
    const NeighborSampler sampler(g, {fanout, fanout});
    Rng a(300 + fanout), b(300 + fanout);
    ExpectSameBatch(sampler.Sample(seeds, a), RefSample(g, {fanout, fanout}, seeds, b));
    EXPECT_EQ(a.Next(), b.Next());
  }
}

// A large batch leaves a large table behind on this thread; the small batch
// that follows (on another graph, where the same ids mean other nodes) must
// not see any of its entries.
TEST(SamplerPropertyTest, SmallBatchAfterLargeBatchOnTheSameThread) {
  const CsrGraph& big = PsLikeGraph();
  const CsrGraph small = ErdosRenyi(64, 600, Rng(5));
  const std::vector<NodeId> big_seeds = DrawSeeds(big.num_nodes(), 1024, 41);
  const std::vector<NodeId> small_seeds = DrawSeeds(small.num_nodes(), 3, 42);
  for (int round = 0; round < 2; ++round) {
    {
      const NeighborSampler sampler(big, {10, 10});
      Rng a(100 + round), b(100 + round);
      ExpectSameBatch(sampler.Sample(big_seeds, a), RefSample(big, {10, 10}, big_seeds, b));
      EXPECT_EQ(a.Next(), b.Next());
    }
    {
      const NeighborSampler sampler(small, {5, 5, 5});
      Rng a(200 + round), b(200 + round);
      ExpectSameBatch(sampler.Sample(small_seeds, a),
                      RefSample(small, {5, 5, 5}, small_seeds, b));
      EXPECT_EQ(a.Next(), b.Next());
    }
  }
}

}  // namespace
}  // namespace apt
