// Node-wise neighbor sampling with a per-layer fanout vector (paper §2).
//
// Layer k of sampling draws up to fanout[k] distinct neighbors for each
// frontier node; the resulting Block stack is consumed innermost-first by
// the execution engine. Deterministic given the Rng. Sample may run on
// several threads at once: each thread samples through its own scratch.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/random.h"
#include "graph/csr_graph.h"
#include "sampling/block.h"

namespace apt {

class NeighborSampler {
 public:
  /// fanouts[0] applies to the layer nearest the seeds. A fanout of
  /// [10, 5] samples 10 neighbors of each seed, then 5 of each of those.
  NeighborSampler(const CsrGraph& graph, std::vector<int> fanouts);

  /// Samples the block stack for one mini-batch of seeds.
  /// blocks[0] in the result is the *first layer of computation*
  /// (i.e. produced by the LAST sampling hop, per the paper's terminology).
  SampledBatch Sample(std::span<const NodeId> seeds, Rng& rng) const;

  int num_layers() const { return static_cast<int>(fanouts_.size()); }
  const std::vector<int>& fanouts() const { return fanouts_; }

 private:
  /// Samples one bipartite layer for the given destination frontier.
  Block SampleLayer(std::span<const NodeId> dst, int fanout, Rng& rng) const;

  const CsrGraph& graph_;
  std::vector<int> fanouts_;
};

}  // namespace apt
