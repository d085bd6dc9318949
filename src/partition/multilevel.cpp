// Multilevel edge-cut partitioning (coarsen / initial partition / refine).
#include <algorithm>
#include <deque>
#include <numeric>
#include <unordered_map>

#include "core/logging.h"
#include "partition/partitioner.h"

namespace apt {

namespace {

constexpr NodeId kCoarsenUntil = 512;  ///< stop coarsening below this many nodes
constexpr int kMaxLevels = 30;
constexpr int kRefinePasses = 6;
constexpr int kInitialAttempts = 8;  ///< randomized restarts on the coarsest graph
constexpr double kBalanceTolerance = 0.05;  ///< parts may exceed ideal by this factor
constexpr std::uint64_t kSeed = 13;

/// Weighted graph used internally across coarsening levels.
struct WGraph {
  std::vector<EdgeId> indptr;
  std::vector<NodeId> adj;
  std::vector<std::int64_t> edge_w;
  std::vector<std::int64_t> node_w;
  NodeId num_nodes() const { return static_cast<NodeId>(node_w.size()); }
};

WGraph FromCsr(const CsrGraph& g) {
  WGraph w;
  w.indptr.assign(g.indptr().begin(), g.indptr().end());
  w.adj.assign(g.indices().begin(), g.indices().end());
  w.edge_w.assign(w.adj.size(), 1);
  // Unit node weights: partitions are balanced by node count, which also
  // balances per-partition training seeds (and, without extreme hubs,
  // adjacency volume). This mirrors DGL's partitioning setup, where
  // balanced train-node counts keep per-step work even across devices.
  w.node_w.assign(static_cast<std::size_t>(g.num_nodes()), 1);
  return w;
}

/// Heavy-edge matching: visit nodes in random order; match each unmatched
/// node with its unmatched neighbor of maximum edge weight.
std::vector<NodeId> HeavyEdgeMatch(const WGraph& g, Rng& rng, NodeId* num_coarse) {
  const NodeId n = g.num_nodes();
  std::vector<NodeId> match(static_cast<std::size_t>(n), kInvalidNode);
  std::vector<NodeId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), NodeId{0});
  rng.Shuffle(order);
  for (NodeId v : order) {
    if (match[static_cast<std::size_t>(v)] != kInvalidNode) continue;
    NodeId best = kInvalidNode;
    std::int64_t best_w = -1;
    for (EdgeId e = g.indptr[static_cast<std::size_t>(v)];
         e < g.indptr[static_cast<std::size_t>(v) + 1]; ++e) {
      const NodeId u = g.adj[static_cast<std::size_t>(e)];
      if (u == v || match[static_cast<std::size_t>(u)] != kInvalidNode) continue;
      if (g.edge_w[static_cast<std::size_t>(e)] > best_w) {
        best_w = g.edge_w[static_cast<std::size_t>(e)];
        best = u;
      }
    }
    if (best == kInvalidNode) {
      match[static_cast<std::size_t>(v)] = v;  // stays single
    } else {
      match[static_cast<std::size_t>(v)] = best;
      match[static_cast<std::size_t>(best)] = v;
    }
  }
  // Assign coarse ids.
  std::vector<NodeId> coarse_id(static_cast<std::size_t>(n), kInvalidNode);
  NodeId next = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (coarse_id[static_cast<std::size_t>(v)] != kInvalidNode) continue;
    const NodeId m = match[static_cast<std::size_t>(v)];
    coarse_id[static_cast<std::size_t>(v)] = next;
    if (m != v) coarse_id[static_cast<std::size_t>(m)] = next;
    ++next;
  }
  *num_coarse = next;
  return coarse_id;
}

WGraph Contract(const WGraph& g, const std::vector<NodeId>& coarse_id,
                NodeId num_coarse) {
  WGraph c;
  c.node_w.assign(static_cast<std::size_t>(num_coarse), 0);
  const NodeId n = g.num_nodes();
  for (NodeId v = 0; v < n; ++v) {
    c.node_w[static_cast<std::size_t>(coarse_id[static_cast<std::size_t>(v)])] +=
        g.node_w[static_cast<std::size_t>(v)];
  }
  // Aggregate multi-edges between coarse nodes.
  std::vector<std::unordered_map<NodeId, std::int64_t>> nbrs(
      static_cast<std::size_t>(num_coarse));
  for (NodeId v = 0; v < n; ++v) {
    const NodeId cv = coarse_id[static_cast<std::size_t>(v)];
    for (EdgeId e = g.indptr[static_cast<std::size_t>(v)];
         e < g.indptr[static_cast<std::size_t>(v) + 1]; ++e) {
      const NodeId cu = coarse_id[static_cast<std::size_t>(g.adj[static_cast<std::size_t>(e)])];
      if (cu == cv) continue;
      nbrs[static_cast<std::size_t>(cv)][cu] += g.edge_w[static_cast<std::size_t>(e)];
    }
  }
  c.indptr.assign(static_cast<std::size_t>(num_coarse) + 1, 0);
  for (NodeId v = 0; v < num_coarse; ++v) {
    c.indptr[static_cast<std::size_t>(v) + 1] =
        c.indptr[static_cast<std::size_t>(v)] +
        static_cast<EdgeId>(nbrs[static_cast<std::size_t>(v)].size());
  }
  c.adj.resize(static_cast<std::size_t>(c.indptr.back()));
  c.edge_w.resize(c.adj.size());
  for (NodeId v = 0; v < num_coarse; ++v) {
    EdgeId pos = c.indptr[static_cast<std::size_t>(v)];
    for (const auto& [u, w] : nbrs[static_cast<std::size_t>(v)]) {
      c.adj[static_cast<std::size_t>(pos)] = u;
      c.edge_w[static_cast<std::size_t>(pos)] = w;
      ++pos;
    }
  }
  return c;
}

/// Greedy BFS graph-growing initial partition on the coarsest graph.
std::vector<PartId> InitialPartition(const WGraph& g, PartId k, Rng& rng) {
  const NodeId n = g.num_nodes();
  std::int64_t total_w = std::accumulate(g.node_w.begin(), g.node_w.end(), std::int64_t{0});
  const std::int64_t target = (total_w + k - 1) / k;
  std::vector<PartId> part(static_cast<std::size_t>(n), -1);
  std::vector<NodeId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), NodeId{0});
  rng.Shuffle(order);
  std::size_t cursor = 0;
  for (PartId p = 0; p < k; ++p) {
    std::int64_t grown = 0;
    std::deque<NodeId> frontier;
    while (grown < target) {
      if (frontier.empty()) {
        // Find an unassigned seed.
        while (cursor < order.size() && part[static_cast<std::size_t>(order[cursor])] != -1) {
          ++cursor;
        }
        if (cursor >= order.size()) break;
        frontier.push_back(order[cursor]);
      }
      const NodeId v = frontier.front();
      frontier.pop_front();
      if (part[static_cast<std::size_t>(v)] != -1) continue;
      part[static_cast<std::size_t>(v)] = p;
      grown += g.node_w[static_cast<std::size_t>(v)];
      for (EdgeId e = g.indptr[static_cast<std::size_t>(v)];
           e < g.indptr[static_cast<std::size_t>(v) + 1]; ++e) {
        const NodeId u = g.adj[static_cast<std::size_t>(e)];
        if (part[static_cast<std::size_t>(u)] == -1) frontier.push_back(u);
      }
    }
  }
  // Any leftovers go to the lightest part.
  std::vector<std::int64_t> loads(static_cast<std::size_t>(k), 0);
  for (NodeId v = 0; v < n; ++v) {
    if (part[static_cast<std::size_t>(v)] >= 0) {
      loads[static_cast<std::size_t>(part[static_cast<std::size_t>(v)])] +=
          g.node_w[static_cast<std::size_t>(v)];
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    if (part[static_cast<std::size_t>(v)] == -1) {
      const auto it = std::min_element(loads.begin(), loads.end());
      const PartId p = static_cast<PartId>(it - loads.begin());
      part[static_cast<std::size_t>(v)] = p;
      loads[static_cast<std::size_t>(p)] += g.node_w[static_cast<std::size_t>(v)];
    }
  }
  return part;
}

/// One boundary-refinement pass: move nodes to the neighboring part with the
/// largest cut gain, subject to the balance constraint. Returns total gain.
std::int64_t RefinePass(const WGraph& g, std::vector<PartId>& part, PartId k,
                        double tolerance) {
  const NodeId n = g.num_nodes();
  std::vector<std::int64_t> loads(static_cast<std::size_t>(k), 0);
  std::int64_t total_w = 0;
  for (NodeId v = 0; v < n; ++v) {
    loads[static_cast<std::size_t>(part[static_cast<std::size_t>(v)])] +=
        g.node_w[static_cast<std::size_t>(v)];
    total_w += g.node_w[static_cast<std::size_t>(v)];
  }
  const auto max_load =
      static_cast<std::int64_t>((1.0 + tolerance) * total_w / k) + 1;
  std::int64_t total_gain = 0;
  std::vector<std::int64_t> conn(static_cast<std::size_t>(k), 0);
  for (NodeId v = 0; v < n; ++v) {
    const PartId pv = part[static_cast<std::size_t>(v)];
    // Connectivity of v to each part.
    std::fill(conn.begin(), conn.end(), 0);
    bool boundary = false;
    for (EdgeId e = g.indptr[static_cast<std::size_t>(v)];
         e < g.indptr[static_cast<std::size_t>(v) + 1]; ++e) {
      const PartId pu = part[static_cast<std::size_t>(g.adj[static_cast<std::size_t>(e)])];
      conn[static_cast<std::size_t>(pu)] += g.edge_w[static_cast<std::size_t>(e)];
      if (pu != pv) boundary = true;
    }
    if (!boundary) continue;
    PartId best = pv;
    std::int64_t best_gain = 0;
    for (PartId p = 0; p < k; ++p) {
      if (p == pv) continue;
      const std::int64_t gain =
          conn[static_cast<std::size_t>(p)] - conn[static_cast<std::size_t>(pv)];
      if (gain > best_gain &&
          loads[static_cast<std::size_t>(p)] + g.node_w[static_cast<std::size_t>(v)] <=
              max_load) {
        best_gain = gain;
        best = p;
      }
    }
    if (best != pv) {
      loads[static_cast<std::size_t>(pv)] -= g.node_w[static_cast<std::size_t>(v)];
      loads[static_cast<std::size_t>(best)] += g.node_w[static_cast<std::size_t>(v)];
      part[static_cast<std::size_t>(v)] = best;
      total_gain += best_gain;
    }
  }
  return total_gain;
}

}  // namespace

PartitionAssignment RandomPartitioner::Partition(const CsrGraph& graph,
                                                 PartId num_parts) {
  APT_CHECK_GT(num_parts, 0);
  Rng rng(seed_);
  PartitionAssignment part(static_cast<std::size_t>(graph.num_nodes()));
  for (auto& p : part) {
    p = static_cast<PartId>(rng.NextBelow(static_cast<std::uint64_t>(num_parts)));
  }
  return part;
}

PartitionAssignment MultilevelPartitioner::Partition(const CsrGraph& graph,
                                                     PartId num_parts) {
  APT_CHECK_GT(num_parts, 0);
  const NodeId n = graph.num_nodes();
  if (num_parts == 1) return PartitionAssignment(static_cast<std::size_t>(n), 0);

  Rng rng(kSeed);
  // Coarsening phase.
  std::vector<WGraph> levels;
  std::vector<std::vector<NodeId>> maps;  // fine node -> coarse node
  levels.push_back(FromCsr(graph));
  while (levels.back().num_nodes() > std::max<NodeId>(kCoarsenUntil, 4 * num_parts) &&
         static_cast<int>(levels.size()) < kMaxLevels) {
    NodeId num_coarse = 0;
    auto cid = HeavyEdgeMatch(levels.back(), rng, &num_coarse);
    // Matching degenerated (e.g. star graphs): stop if shrinkage is too weak.
    if (num_coarse > levels.back().num_nodes() * 9 / 10) break;
    levels.push_back(Contract(levels.back(), cid, num_coarse));
    maps.push_back(std::move(cid));
  }

  // Initial partition on the coarsest level: multiple randomized BFS-growing
  // attempts, each FM-refined; keep the best cut. The coarsest graph is tiny,
  // so restarts are cheap and buy a much better starting point.
  auto cut_of = [](const WGraph& g, const std::vector<PartId>& p) {
    std::int64_t cut = 0;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      for (EdgeId e = g.indptr[static_cast<std::size_t>(v)];
           e < g.indptr[static_cast<std::size_t>(v) + 1]; ++e) {
        if (p[static_cast<std::size_t>(g.adj[static_cast<std::size_t>(e)])] !=
            p[static_cast<std::size_t>(v)]) {
          cut += g.edge_w[static_cast<std::size_t>(e)];
        }
      }
    }
    return cut;
  };
  std::vector<PartId> part;
  std::int64_t best_cut = 0;
  for (int attempt = 0; attempt < kInitialAttempts; ++attempt) {
    std::vector<PartId> candidate = InitialPartition(levels.back(), num_parts, rng);
    for (int pass = 0; pass < 2 * kRefinePasses; ++pass) {
      if (RefinePass(levels.back(), candidate, num_parts, kBalanceTolerance) == 0) break;
    }
    const std::int64_t cut = cut_of(levels.back(), candidate);
    if (attempt == 0 || cut < best_cut) {
      best_cut = cut;
      part = std::move(candidate);
    }
  }

  // Uncoarsen: project and refine at each level.
  for (std::size_t lvl = maps.size(); lvl-- > 0;) {
    const auto& cid = maps[lvl];
    std::vector<PartId> fine_part(cid.size());
    for (std::size_t v = 0; v < cid.size(); ++v) {
      fine_part[v] = part[static_cast<std::size_t>(cid[v])];
    }
    part = std::move(fine_part);
    for (int pass = 0; pass < kRefinePasses; ++pass) {
      if (RefinePass(levels[lvl], part, num_parts, kBalanceTolerance) == 0) break;
    }
  }
  return part;
}

EdgeId EdgeCut(const CsrGraph& graph, const PartitionAssignment& part) {
  APT_CHECK_EQ(static_cast<NodeId>(part.size()), graph.num_nodes());
  EdgeId cut = 0;
  for (NodeId v = 0; v < graph.num_nodes(); ++v) {
    for (NodeId u : graph.Neighbors(v)) {
      if (part[static_cast<std::size_t>(u)] != part[static_cast<std::size_t>(v)]) ++cut;
    }
  }
  return cut / 2;  // undirected graphs store both directions
}

double PartitionBalance(const PartitionAssignment& part, PartId num_parts) {
  std::vector<std::int64_t> sizes(static_cast<std::size_t>(num_parts), 0);
  for (PartId p : part) {
    APT_CHECK(p >= 0 && p < num_parts);
    ++sizes[static_cast<std::size_t>(p)];
  }
  const double ideal = static_cast<double>(part.size()) / num_parts;
  const auto max_size = *std::max_element(sizes.begin(), sizes.end());
  return ideal > 0 ? static_cast<double>(max_size) / ideal : 0.0;
}

std::vector<std::vector<NodeId>> PartitionMembers(const PartitionAssignment& part,
                                                  PartId num_parts) {
  std::vector<std::vector<NodeId>> members(static_cast<std::size_t>(num_parts));
  for (std::size_t v = 0; v < part.size(); ++v) {
    members[static_cast<std::size_t>(part[v])].push_back(static_cast<NodeId>(v));
  }
  return members;
}

}  // namespace apt
