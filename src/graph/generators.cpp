#include "graph/generators.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/default_init_allocator.h"
#include "runtime/parallel_for.h"

namespace apt {

CsrGraph ErdosRenyi(NodeId num_nodes, EdgeId num_edges, Rng rng) {
  APT_CHECK_GT(num_nodes, 1);
  APT_CHECK_GE(num_edges, 0) << "edge count";
  std::vector<NodeId> src, dst;
  src.reserve(static_cast<std::size_t>(num_edges));
  dst.reserve(static_cast<std::size_t>(num_edges));
  for (EdgeId e = 0; e < num_edges; ++e) {
    NodeId u = static_cast<NodeId>(rng.NextBelow(static_cast<std::uint64_t>(num_nodes)));
    NodeId v = static_cast<NodeId>(rng.NextBelow(static_cast<std::uint64_t>(num_nodes)));
    while (v == u) {
      v = static_cast<NodeId>(rng.NextBelow(static_cast<std::uint64_t>(num_nodes)));
    }
    src.push_back(u);
    dst.push_back(v);
  }
  return BuildCsr(num_nodes, src, dst, /*symmetrize=*/true);
}

std::int32_t CommunityOf(NodeId v, NodeId num_nodes, std::int32_t num_communities) {
  const NodeId block = (num_nodes + num_communities - 1) / num_communities;
  return static_cast<std::int32_t>(v / block);
}

CsrGraph ZipfCommunityGraph(const ZipfCommunityParams& params) {
  APT_CHECK_GT(params.num_nodes, 1);
  APT_CHECK_GE(params.num_edges, 0) << "edge count";
  APT_CHECK_GT(params.num_communities, 0);
  APT_CHECK(params.intra_prob >= 0.0 && params.intra_prob <= 1.0);
  const NodeId n = params.num_nodes;
  const std::int32_t k = params.num_communities;
  const NodeId block = (n + k - 1) / k;

  // One Zipf sampler per community size (communities have at most two sizes).
  auto comm_lo = [&](std::int32_t c) { return static_cast<NodeId>(c) * block; };
  auto comm_size = [&](std::int32_t c) {
    return std::min<NodeId>(block, n - comm_lo(c));
  };
  std::vector<ZipfSampler> samplers;
  samplers.reserve(static_cast<std::size_t>(k));
  for (std::int32_t c = 0; c < k; ++c) {
    samplers.emplace_back(comm_size(c), params.zipf_exponent, params.zipf_offset);
  }

  Rng rng(params.seed);
  std::vector<NodeId> src, dst;
  src.reserve(static_cast<std::size_t>(params.num_edges));
  dst.reserve(static_cast<std::size_t>(params.num_edges));
  for (EdgeId e = 0; e < params.num_edges; ++e) {
    // Source: community chosen proportional to its size, then Zipf rank.
    const NodeId anchor = static_cast<NodeId>(rng.NextBelow(static_cast<std::uint64_t>(n)));
    const std::int32_t cs = CommunityOf(anchor, n, k);
    const NodeId u = comm_lo(cs) + samplers[static_cast<std::size_t>(cs)].Sample(rng);
    std::int32_t cd = cs;
    if (rng.NextDouble() >= params.intra_prob && k > 1) {
      cd = static_cast<std::int32_t>(rng.NextBelow(static_cast<std::uint64_t>(k - 1)));
      if (cd >= cs) ++cd;
    }
    // Destination: uniform within the target community. Drawing BOTH
    // endpoints from the Zipf head would make hub-hub edges quadratically
    // overrepresented (a dense assortative core real graphs do not have);
    // one-sided weighting yields hubs connected to ordinary nodes.
    NodeId v = comm_lo(cd) + static_cast<NodeId>(rng.NextBelow(
                                 static_cast<std::uint64_t>(comm_size(cd))));
    for (int tries = 0; v == u && tries < 8; ++tries) {
      v = comm_lo(cd) + static_cast<NodeId>(rng.NextBelow(
                            static_cast<std::uint64_t>(comm_size(cd))));
    }
    if (v == u) continue;  // pathological tiny community; drop the edge
    src.push_back(u);
    dst.push_back(v);
  }
  return BuildCsr(n, src, dst, /*symmetrize=*/true);
}

CsrGraph Rmat(int scale, EdgeId num_edges, double a, double b, double c, Rng rng) {
  APT_CHECK(scale > 0 && scale < 31);
  APT_CHECK_GE(num_edges, 0) << "RMAT edge count";
  APT_CHECK(a >= 0.0 && b >= 0.0 && c >= 0.0) << "RMAT probabilities must be non-negative";
  const double d = 1.0 - a - b - c;
  APT_CHECK(d >= 0.0) << "RMAT probabilities exceed 1";
  const NodeId n = static_cast<NodeId>(1) << scale;
  const double ab = a + b;
  const double abc = a + b + c;
  // Edge e takes exactly `scale` uniforms, draws [e*scale, (e+1)*scale) of
  // `rng`, so every chunk starts at its first edge's draws and the edge list
  // is the same at any lane count.
  // Every slot is drawn below before it is read: no zero fill.
  std::vector<NodeId, DefaultInitAllocator<NodeId>> src(static_cast<std::size_t>(num_edges));
  std::vector<NodeId, DefaultInitAllocator<NodeId>> dst(static_cast<std::size_t>(num_edges));
  ParallelForChunks(0, num_edges, [&](std::int64_t lo, std::int64_t hi) {
    Rng r = rng.Skipped(static_cast<std::uint64_t>(lo) * static_cast<std::uint64_t>(scale));
    for (auto e = static_cast<std::size_t>(lo); e < static_cast<std::size_t>(hi); ++e) {
      NodeId u = 0, v = 0;
      for (int bit = 0; bit < scale; ++bit) {
        // Quadrants [0,a) [a,a+b) [a+b,a+b+c) [a+b+c,1) set bits (u,v) =
        // (0,0) (0,1) (1,0) (1,1); the probabilities are non-negative, so
        // the three thresholds are ordered and the xor picks v's bit.
        const double x = r.NextDouble();
        u = (u << 1) | static_cast<NodeId>(x >= ab);
        v = (v << 1) | static_cast<NodeId>((x >= a) ^ (x >= ab) ^ (x >= abc));
      }
      src[e] = u;
      dst[e] = v;
    }
  });
  std::size_t kept = 0;
  for (std::size_t e = 0; e < src.size(); ++e) {
    if (src[e] == dst[e]) continue;
    src[kept] = src[e];
    dst[kept] = dst[e];
    ++kept;
  }
  src.resize(kept);
  dst.resize(kept);
  return BuildCsr(n, src, dst, /*symmetrize=*/true);
}

}  // namespace apt
