#include "sampling/block.h"

#include <utility>
#include <vector>

#include "core/error.h"

namespace apt {

void Block::Validate() const {
  APT_CHECK_GE(num_dst, 0);
  APT_CHECK_LE(num_dst, num_src());
  APT_CHECK_EQ(static_cast<std::int64_t>(indptr.size()), num_dst + 1);
  APT_CHECK_EQ(indptr.front(), 0);
  APT_CHECK_EQ(indptr.back(), num_edges());
  for (std::size_t i = 1; i < indptr.size(); ++i) {
    APT_CHECK_GE(indptr[i], indptr[i - 1]);
  }
  for (std::int64_t c : col) {
    APT_CHECK(c >= 0 && c < num_src()) << "col " << c << " of " << num_src();
  }
}

double SampleTreeEdges(const SampledBatch& batch) {
  // UVA sampling performs one random topology read per (frontier entry,
  // sampled slot) pair; the frontier is the per-seed expansion MULTISET —
  // deduplication only compacts the node-id lists afterwards. We replay the
  // exact multiset tree by propagating each node's multiplicity through the
  // sampled blocks (seeds start at multiplicity 1; a sampled neighbor
  // inherits its destination's multiplicity). This matches large-graph
  // behaviour, where frontiers of distinct seeds barely overlap; at our
  // scaled-down sizes, charging deduplicated counts would grant
  // clustered-seed strategies an outsized sampling discount.
  double tree_edges = 0.0;
  std::vector<double> mult;
  for (auto it = batch.blocks.rbegin(); it != batch.blocks.rend(); ++it) {
    const Block& b = *it;
    if (mult.empty()) {
      mult.assign(static_cast<std::size_t>(b.num_dst), 1.0);
    }
    std::vector<double> next(static_cast<std::size_t>(b.num_src()), 0.0);
    for (std::int64_t i = 0; i < b.num_dst; ++i) {
      const double m_i = mult[static_cast<std::size_t>(i)];
      next[static_cast<std::size_t>(i)] += m_i;  // dst carries into frontier
      const std::int64_t deg = b.indptr[static_cast<std::size_t>(i) + 1] -
                               b.indptr[static_cast<std::size_t>(i)];
      tree_edges += m_i * static_cast<double>(deg);
      for (std::int64_t e = b.indptr[static_cast<std::size_t>(i)];
           e < b.indptr[static_cast<std::size_t>(i) + 1]; ++e) {
        next[static_cast<std::size_t>(b.col[static_cast<std::size_t>(e)])] += m_i;
      }
    }
    mult = std::move(next);
  }
  return tree_edges;
}

}  // namespace apt
