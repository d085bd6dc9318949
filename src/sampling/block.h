// Sampled bipartite computation blocks (DGL's "message flow graphs").
//
// A Block is one GNN layer's computation graph: `num_dst` destination nodes
// aggregate from source nodes along CSR edges. Source nodes follow the DGL
// prefix convention — src_nodes[0 .. num_dst) are exactly the destination
// nodes (so a layer can read the destination's own previous-layer embedding
// for self/root terms), followed by the newly sampled neighbors.
//
// col[e] indexes *locally* into src_nodes; src_nodes holds global NodeIds.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/types.h"
#include "tensor/segment_ops.h"

namespace apt {

struct Block {
  std::vector<NodeId> src_nodes;   ///< global ids; prefix = dst nodes
  std::int64_t num_dst = 0;        ///< dst nodes are src_nodes[0..num_dst)
  std::vector<std::int64_t> indptr;  ///< size num_dst + 1
  std::vector<std::int64_t> col;     ///< local src index per edge

  /// Memoized source-major transpose of the CSR: backward kernels request it
  /// (at most one build per structure) to turn gradient scatters into
  /// parallel per-source gathers. Copies of a Block share the built
  /// transpose, so don't mutate indptr/col after the first backward pass.
  CsrTransposeCache transpose_cache;

  std::int64_t num_src() const { return static_cast<std::int64_t>(src_nodes.size()); }
  std::int64_t num_edges() const { return static_cast<std::int64_t>(col.size()); }

  CsrView csr() const { return {indptr, col, &transpose_cache}; }

  std::span<const NodeId> dst_nodes() const {
    return {src_nodes.data(), static_cast<std::size_t>(num_dst)};
  }

  /// Serialized size in bytes: what Shuffle moves for this block
  /// (node ids + CSR arrays), used by T_build accounting.
  std::int64_t bytes() const {
    return static_cast<std::int64_t>(src_nodes.size() * sizeof(NodeId) +
                                     indptr.size() * sizeof(std::int64_t) +
                                     col.size() * sizeof(std::int64_t));
  }

  /// Structural sanity: indptr monotone, col in range, prefix convention.
  void Validate() const;
};

/// The sampled subgraph stack for one mini-batch: blocks[0] is the first
/// layer of computation (furthest from the seeds; its src_nodes need input
/// features), blocks.back() outputs embeddings for the seed nodes.
struct SampledBatch {
  std::vector<Block> blocks;
  std::vector<NodeId> seeds;

  /// Nodes whose input features must be loaded.
  std::span<const NodeId> input_nodes() const {
    return blocks.front().src_nodes;
  }
};

/// Size of the per-seed expansion multiset tree of `batch`: the number of
/// UVA topology reads sampling performs (see the definition in the .cpp).
/// The trainer's and the dry-run's sampling cost (SampleSeconds) and the
/// serving engine's both count it.
double SampleTreeEdges(const SampledBatch& batch);

}  // namespace apt
