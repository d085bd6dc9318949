// Dataset: graph topology + node features + labels + train/val/test splits.
//
// Presets `PsLike`, `FsLike`, `ImLike` are scaled-down stand-ins for the
// paper's OGBN-Papers100M (PS), Friendster (FS), and IGB260M (IM). They are
// calibrated on the two properties that drive strategy choice:
//   * access skew under neighbor sampling — PS head-heavy, FS scattered,
//     IM in between (paper Table 3);
//   * feature dimension — PS/IM 128, FS 256 (paper Table 2).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/random.h"
#include "core/types.h"
#include "graph/csr_graph.h"
#include "graph/generators.h"
#include "tensor/tensor.h"

namespace apt {

struct Dataset {
  std::string name;
  CsrGraph graph;
  Tensor features;                  ///< num_nodes x feature_dim
  std::vector<std::int64_t> labels; ///< one class id per node
  std::int64_t num_classes = 0;
  std::vector<NodeId> train_nodes;
  std::vector<NodeId> val_nodes;
  std::vector<NodeId> test_nodes;
  std::int32_t num_communities = 0; ///< generator communities (0 if unknown)
  /// Procedural features (scale sweeps): when `features` is empty and this is
  /// > 0, feature rows are generated on demand from a hash of
  /// (procedural_feature_seed, node, col) by the FeatureStore — 100M-node
  /// graphs train without a num_nodes x dim matrix. Values are deterministic
  /// and batching-independent.
  std::int64_t procedural_feature_dim = 0;
  std::uint64_t procedural_feature_seed = 0;

  std::int64_t feature_dim() const {
    return features.numel() > 0 || procedural_feature_dim <= 0
               ? features.cols()
               : procedural_feature_dim;
  }
  std::int64_t FeatureBytes() const {
    return features.numel() > 0
               ? features.bytes()
               : graph.num_nodes() * procedural_feature_dim * 4;
  }
};

/// Knobs for building a synthetic dataset.
struct DatasetParams {
  std::string name = "synthetic";
  NodeId num_nodes = 20000;
  EdgeId num_edges = 200000;      ///< before symmetrization/dedupe
  std::int64_t feature_dim = 64;
  std::int64_t num_classes = 8;
  std::int32_t num_communities = 8;
  double zipf_exponent = 0.8;     ///< access-skew knob
  double zipf_offset = 0.0;       ///< head-flattening knob (see generators.h)
  double intra_prob = 0.9;        ///< partitionability knob
  double train_fraction = 0.1;
  double val_fraction = 0.05;
  double label_noise = 0.1;       ///< fraction of nodes with a random label
  float feature_noise = 0.6f;     ///< feature = centroid + N(0, noise)
  std::uint64_t seed = 42;
};

/// Builds a dataset: ZipfCommunityGraph topology, class-centroid features
/// with Gaussian noise (learnable node classification), random splits.
Dataset MakeDataset(const DatasetParams& params);

/// Preset parameter sets. `scale` multiplies node and edge counts
/// (scale = 1.0 is the default benchmark size of ~24k-32k nodes).
DatasetParams PsLikeParams(double scale = 1.0);
DatasetParams FsLikeParams(double scale = 1.0);
DatasetParams ImLikeParams(double scale = 1.0);

/// Overrides the feature dimension of a preset (Fig 1 varies input dim).
DatasetParams WithFeatureDim(DatasetParams p, std::int64_t dim);

}  // namespace apt
