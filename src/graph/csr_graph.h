// Immutable CSR representation of the data graph.
//
// Stored as in-neighbor lists: Neighbors(v) returns the nodes u with an edge
// u -> v, which is the direction GNN aggregation consumes (v aggregates from
// its in-neighbors). The generators in this repo produce undirected graphs
// (both directions inserted), matching the paper's datasets.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/error.h"
#include "core/types.h"

namespace apt {

class CsrGraph {
 public:
  CsrGraph() = default;

  /// Takes ownership of validated CSR arrays; indptr.size() == num_nodes + 1.
  CsrGraph(std::vector<EdgeId> indptr, std::vector<NodeId> indices);

  NodeId num_nodes() const { return static_cast<NodeId>(indptr_.size()) - 1; }
  EdgeId num_edges() const { return static_cast<EdgeId>(indices_.size()); }

  /// In-neighbors of v (sorted ascending).
  std::span<const NodeId> Neighbors(NodeId v) const {
    APT_CHECK(v >= 0 && v < num_nodes()) << "node " << v;
    return {indices_.data() + indptr_[static_cast<std::size_t>(v)],
            static_cast<std::size_t>(Degree(v))};
  }

  EdgeId Degree(NodeId v) const {
    return indptr_[static_cast<std::size_t>(v) + 1] - indptr_[static_cast<std::size_t>(v)];
  }

  std::span<const EdgeId> indptr() const { return indptr_; }
  std::span<const NodeId> indices() const { return indices_; }

  /// Topology size in bytes (what the simulator charges for replication).
  std::int64_t TopologyBytes() const {
    return static_cast<std::int64_t>(indptr_.size() * sizeof(EdgeId) +
                                     indices_.size() * sizeof(NodeId));
  }

 private:
  std::vector<EdgeId> indptr_;   // size num_nodes + 1
  std::vector<NodeId> indices_;  // size num_edges
};

/// Builds a CSR graph from a (src, dst) edge list interpreted as src -> dst.
/// Self-loops are kept; duplicate edges are removed; neighbor lists sorted.
/// If `symmetrize`, the reverse of each edge is also inserted. Ids must lie
/// in [0, num_nodes). Rows are sorted and deduped on the fork-join pool; the
/// result does not depend on the lane count.
CsrGraph BuildCsr(NodeId num_nodes, std::span<const NodeId> src,
                  std::span<const NodeId> dst, bool symmetrize);

}  // namespace apt
