#include "graph/csr_graph.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "core/default_init_allocator.h"
#include "runtime/parallel_for.h"

namespace apt {

CsrGraph::CsrGraph(std::vector<EdgeId> indptr, std::vector<NodeId> indices)
    : indptr_(std::move(indptr)), indices_(std::move(indices)) {
  APT_CHECK_GE(indptr_.size(), 1u);
  APT_CHECK_EQ(indptr_.front(), 0);
  APT_CHECK_EQ(indptr_.back(), static_cast<EdgeId>(indices_.size()));
  for (std::size_t i = 1; i < indptr_.size(); ++i) {
    APT_CHECK_GE(indptr_[i], indptr_[i - 1]);
  }
}

CsrGraph BuildCsr(NodeId num_nodes, std::span<const NodeId> src,
                  std::span<const NodeId> dst, bool symmetrize) {
  APT_CHECK_GE(num_nodes, 0) << "node count";
  APT_CHECK_EQ(src.size(), dst.size());
  const std::size_t m = src.size();
  const auto n = static_cast<std::size_t>(num_nodes);

  // Validate ids in parallel. Each chunk stops at its first bad edge; the
  // lowest one is reported with the message a serial scan would give.
  std::atomic<std::size_t> first_bad{m};
  ParallelForChunks(
      0, static_cast<std::int64_t>(m),
      [&](std::int64_t lo, std::int64_t hi) {
        for (auto i = static_cast<std::size_t>(lo); i < static_cast<std::size_t>(hi); ++i) {
          if (src[i] >= 0 && src[i] < num_nodes && dst[i] >= 0 && dst[i] < num_nodes) continue;
          std::size_t cur = first_bad.load();
          while (i < cur && !first_bad.compare_exchange_weak(cur, i)) {
          }
          return;
        }
      },
      /*grain=*/1 << 16);
  if (const std::size_t i = first_bad.load(); i < m) {
    APT_CHECK(src[i] >= 0 && src[i] < num_nodes) << "src " << src[i];
    APT_CHECK(dst[i] >= 0 && dst[i] < num_nodes) << "dst " << dst[i];
  }

  // Counting sort by destination: CSR is keyed by destination, and the
  // neighbor list of v holds its in-neighbors. `offsets` bounds each row in
  // one buffer that the scatter fills in input order.
  std::vector<EdgeId> offsets(n + 1, 0);
  for (std::size_t i = 0; i < m; ++i) {
    ++offsets[static_cast<std::size_t>(dst[i]) + 1];
    if (symmetrize && src[i] != dst[i]) ++offsets[static_cast<std::size_t>(src[i]) + 1];
  }
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  // The scatter writes every slot of `rows`: no zero fill.
  std::vector<NodeId, DefaultInitAllocator<NodeId>> rows(static_cast<std::size_t>(offsets[n]));
  std::vector<EdgeId> fill(offsets.begin(), offsets.end() - 1);
  for (std::size_t i = 0; i < m; ++i) {
    rows[static_cast<std::size_t>(fill[static_cast<std::size_t>(dst[i])]++)] = src[i];
    if (symmetrize && src[i] != dst[i]) {
      rows[static_cast<std::size_t>(fill[static_cast<std::size_t>(src[i])]++)] = dst[i];
    }
  }

  // Sort and dedupe each row: a sorted, duplicate-free row is the same
  // whatever order the scatter wrote it in. Hub rows make the per-row cost
  // skewed, so rows are claimed dynamically. `fill` now holds kept lengths.
  ParallelForChunksDynamic(0, num_nodes, [&](std::int64_t lo, std::int64_t hi) {
    for (auto v = static_cast<std::size_t>(lo); v < static_cast<std::size_t>(hi); ++v) {
      NodeId* const first = rows.data() + offsets[v];
      NodeId* const last = rows.data() + offsets[v + 1];
      std::sort(first, last);
      fill[v] = std::unique(first, last) - first;
    }
  });

  // Copy the kept rows into an exact-size `indices`. Compacting `rows` in
  // place would leave the duplicates' share as dead capacity for the life of
  // the graph (about a third of the entries on the Zipf datasets), and
  // shrinking it afterwards costs the same copy.
  std::vector<EdgeId> indptr(n + 1, 0);
  std::partial_sum(fill.begin(), fill.end(), indptr.begin() + 1);
  std::vector<NodeId> indices(static_cast<std::size_t>(indptr[n]));
  ParallelForChunks(0, num_nodes, [&](std::int64_t lo, std::int64_t hi) {
    for (auto v = static_cast<std::size_t>(lo); v < static_cast<std::size_t>(hi); ++v) {
      std::copy_n(rows.data() + offsets[v], fill[v], indices.data() + indptr[v]);
    }
  });
  return CsrGraph(std::move(indptr), std::move(indices));
}

}  // namespace apt
