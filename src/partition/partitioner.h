// Graph partitioning interfaces (the METIS role in the paper).
//
// SNP and DNP assign seed nodes, cached features, and layer-1 work by an
// edge-cut partition of the data graph; Fig 11 contrasts a quality
// partitioner against random assignment.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/random.h"
#include "core/types.h"
#include "graph/csr_graph.h"

namespace apt {

/// part[v] in [0, num_parts) for every node v.
using PartitionAssignment = std::vector<PartId>;

class Partitioner {
 public:
  virtual ~Partitioner() = default;
  virtual PartitionAssignment Partition(const CsrGraph& graph, PartId num_parts) = 0;
  virtual std::string Name() const = 0;
};

/// Uniform random assignment (Fig 11's low-quality baseline).
class RandomPartitioner final : public Partitioner {
 public:
  explicit RandomPartitioner(std::uint64_t seed = 7) : seed_(seed) {}
  PartitionAssignment Partition(const CsrGraph& graph, PartId num_parts) override;
  std::string Name() const override { return "random"; }

 private:
  std::uint64_t seed_;
};

/// Multilevel edge-cut partitioner: heavy-edge-matching coarsening, greedy
/// BFS growing for the initial partition, and boundary FM refinement during
/// uncoarsening. Plays the METIS role.
class MultilevelPartitioner final : public Partitioner {
 public:
  PartitionAssignment Partition(const CsrGraph& graph, PartId num_parts) override;
  std::string Name() const override { return "multilevel"; }
};

/// Number of edges whose endpoints land in different parts.
EdgeId EdgeCut(const CsrGraph& graph, const PartitionAssignment& part);

/// max part size / ideal part size (1.0 = perfectly balanced).
double PartitionBalance(const PartitionAssignment& part, PartId num_parts);

/// Nodes of each part, in ascending node order.
std::vector<std::vector<NodeId>> PartitionMembers(const PartitionAssignment& part,
                                                  PartId num_parts);

}  // namespace apt
