// Synthetic graph generators.
//
// The paper evaluates on OGBN-Papers100M, Friendster, and IGB260M — graphs
// we cannot ship. What decides the winning parallelization strategy is (a)
// the skew of node-access frequencies under neighbor sampling (Table 3) and
// (b) how well an edge-cut partitioner can localize the graph (Fig 11).
// Both are controllable here: `ZipfCommunityGraph` draws endpoints from a
// Zipf-weighted distribution (skew knob) and keeps a tunable fraction of
// edges inside planted communities (partitionability knob).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/random.h"
#include "graph/csr_graph.h"

namespace apt {

/// Draws ranks from a (shifted) Zipf law: weight(r) = (r+1+offset)^-alpha.
/// Cumulative weights + binary search, so Sample is O(log n) and the
/// distribution is exact (no rejection). Used by the graph generators for
/// edge-endpoint skew and by the serving engine for per-user seed
/// popularity — the same knob that makes Table 3's access skew makes a
/// realistic request mix.
class ZipfSampler {
 public:
  ZipfSampler(NodeId n, double alpha, double offset)
      : cum_(static_cast<std::size_t>(n)) {
    double acc = 0.0;
    for (NodeId r = 0; r < n; ++r) {
      acc += std::pow(static_cast<double>(r + 1) + offset, -alpha);
      cum_[static_cast<std::size_t>(r)] = acc;
    }
  }

  NodeId Sample(Rng& rng) const {
    const double u = rng.NextDouble() * cum_.back();
    const auto it = std::lower_bound(cum_.begin(), cum_.end(), u);
    return static_cast<NodeId>(it - cum_.begin());
  }

 private:
  std::vector<double> cum_;
};

/// Uniform Erdos–Renyi G(n, m): m undirected edges chosen uniformly.
CsrGraph ErdosRenyi(NodeId num_nodes, EdgeId num_edges, Rng rng);

/// Parameters for the Zipf-weighted planted-community generator.
struct ZipfCommunityParams {
  NodeId num_nodes = 0;
  EdgeId num_edges = 0;       ///< undirected edge count before dedupe
  std::int32_t num_communities = 8;
  double zipf_exponent = 0.8; ///< 0 = uniform endpoints; >1 = heavy head
  double zipf_offset = 0.0;   ///< shifted Zipf: weight = (rank+1+offset)^-a;
                              ///< flattens the extreme head (no mega-hubs)
  double intra_prob = 0.9;    ///< probability an edge stays inside a community
  std::uint64_t seed = 1;
};

/// Nodes are assigned to communities in contiguous blocks; node popularity
/// follows a Zipf law *within* each community (so the head of the access
/// distribution is spread across partitions, as in real graphs).
CsrGraph ZipfCommunityGraph(const ZipfCommunityParams& params);

/// Community id of a node under ZipfCommunityGraph's contiguous layout.
std::int32_t CommunityOf(NodeId v, NodeId num_nodes, std::int32_t num_communities);

/// RMAT generator (Graph500-style recursive quadrant sampling).
/// Produces heavy-tailed degrees; used by tests and micro benches.
/// Quadrant probabilities a, b, c must be non-negative and sum to at most 1.
/// Edge e is drawn from draws [e*scale, (e+1)*scale) of `rng`, so the edges
/// are drawn in parallel and the graph is the same at any lane count;
/// self-loops are dropped.
CsrGraph Rmat(int scale, EdgeId num_edges, double a, double b, double c, Rng rng);

}  // namespace apt
