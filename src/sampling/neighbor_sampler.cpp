#include "sampling/neighbor_sampler.h"

#include <algorithm>
#include <limits>

#include "core/error.h"
#include "sampling/reservoir_draws.h"

namespace apt {

namespace {

/// Global-to-local id table of one SampleLayer call: open addressing with
/// linear probing, a multiplicative hash and a power-of-two capacity of at
/// least twice the keys the layer can insert, so the load stays at most 1/2.
/// A slot belongs to the current layer only if it carries the layer's stamp;
/// starting a layer bumps the stamp, which empties the table in O(1) and
/// leaves nothing stale behind a layer that threw.
class LocalIdTable {
 public:
  /// Empties the table and sizes it for up to `max_keys` distinct keys.
  void Reset(std::int64_t max_keys) {
    APT_CHECK_LE(max_keys, std::numeric_limits<std::int32_t>::max());
    int bits = 1;
    while ((std::int64_t{1} << bits) < 2 * max_keys) ++bits;
    const std::size_t capacity = std::size_t{1} << bits;
    if (slots_.size() < capacity) slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    shift_ = 64 - bits;
    if (++stamp_ == 0) {  // wrapped: no old stamp may read as current
      for (Slot& s : slots_) s.stamp = 0;
      stamp_ = 1;
    }
  }

  /// The local id of `v`; a `v` not seen since Reset takes `fresh`.
  std::int64_t IdOf(NodeId v, std::int64_t fresh) {
    std::size_t s = (static_cast<std::uint64_t>(v) * 0x9e3779b97f4a7c15ULL) >> shift_;
    for (;; s = (s + 1) & mask_) {
      Slot& slot = slots_[s];
      if (slot.stamp != stamp_) {
        slot = {v, stamp_, static_cast<std::int32_t>(fresh)};
        return fresh;
      }
      if (slot.key == v) return slot.id;
    }
  }

 private:
  struct Slot {
    NodeId key = kInvalidNode;
    std::uint32_t stamp = 0;
    std::int32_t id = 0;
  };
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  int shift_ = 63;
  std::uint32_t stamp_ = 0;
};

/// Per-thread sampling scratch, reused across layers and calls: it grows to
/// the largest layer and the highest degree this thread has sampled and is
/// never shrunk.
struct SamplerScratch {
  LocalIdTable ids;
  /// fanout slots plus one that absorbs the draws that land past the
  /// fanout, so the scalar draw loop stores without a branch.
  std::vector<NodeId> reservoir;
  /// recip[n] = floor((2^64 - 1) / n) for 2 <= n < recip.size().
  std::vector<std::uint64_t> recip{0, 0};
  /// The vector draws' hit list: room for every draw of a row plus one
  /// vector's overhang.
  std::vector<std::int64_t> hit_slot;
  std::vector<NodeId> hit_nbr;

  void CoverDegree(std::int64_t deg) {
    for (auto n = static_cast<std::uint64_t>(recip.size());
         n <= static_cast<std::uint64_t>(deg); ++n) {
      recip.push_back(~std::uint64_t{0} / n);
    }
    const auto hits = static_cast<std::size_t>(deg) + 8;
    if (hit_slot.size() < hits) {
      hit_slot.resize(hits);
      hit_nbr.resize(hits);
    }
  }
};

SamplerScratch& ThreadScratch() {
  thread_local SamplerScratch scratch;
  return scratch;
}

// The row's reservoir draws: reservoir::DrawScalar, or DrawV4 on hosts with
// AVX-512 (ifunc-dispatched, see core/isa.h).
#define APT_DRAW_RESERVOIR(ATTRS, KERNEL)                                             \
  ATTRS void DrawReservoir(Rng draws, const NodeId* nbrs, std::int64_t deg,           \
                           std::int64_t fanout, const std::uint64_t* recip,           \
                           NodeId* reservoir, reservoir::HitList hits) {              \
    reservoir::KERNEL(draws, nbrs, deg, fanout, recip, reservoir, hits);             \
  }

#if APT_ISA_DISPATCH
APT_DRAW_RESERVOIR(__attribute__((target("default"))), DrawScalar)
APT_DRAW_RESERVOIR(__attribute__((target("arch=x86-64-v4"))), DrawV4)
#else
APT_DRAW_RESERVOIR(, DrawScalar)
#endif

#undef APT_DRAW_RESERVOIR

}  // namespace

NeighborSampler::NeighborSampler(const CsrGraph& graph, std::vector<int> fanouts)
    : graph_(graph), fanouts_(std::move(fanouts)) {
  APT_CHECK(!fanouts_.empty());
  for (int f : fanouts_) APT_CHECK_GT(f, 0);
}

Block NeighborSampler::SampleLayer(std::span<const NodeId> dst, int fanout,
                                   Rng& rng) const {
  Block block;
  block.num_dst = static_cast<std::int64_t>(dst.size());
  block.src_nodes.assign(dst.begin(), dst.end());

  // Every row keeps min(deg, fanout) edges, so indptr is known up front and
  // col is reserved to its exact size.
  block.indptr.reserve(dst.size() + 1);
  block.indptr.push_back(0);
  std::int64_t num_edges = 0;
  for (NodeId v : dst) {
    num_edges += std::min<std::int64_t>(graph_.Degree(v), fanout);
    block.indptr.push_back(num_edges);
  }
  block.col.reserve(static_cast<std::size_t>(num_edges));

  // Local id assignment: dst nodes occupy the prefix (a duplicate keeps its
  // first id); new sources are appended in first-seen order.
  SamplerScratch& scratch = ThreadScratch();
  LocalIdTable& ids = scratch.ids;
  ids.Reset(std::min<std::int64_t>(block.num_dst * (std::int64_t{fanout} + 1),
                                   graph_.num_nodes()));
  for (std::size_t i = 0; i < dst.size(); ++i) {
    ids.IdOf(dst[i], static_cast<std::int64_t>(i));
  }
  const auto add_edge = [&](NodeId u) {
    const std::int64_t fresh = block.num_src();
    const std::int64_t id = ids.IdOf(u, fresh);
    if (id == fresh) block.src_nodes.push_back(u);
    block.col.push_back(id);
  };

  std::vector<NodeId>& reservoir = scratch.reservoir;
  reservoir.resize(static_cast<std::size_t>(fanout) + 1);
  for (NodeId v : dst) {
    const auto nbrs = graph_.Neighbors(v);
    const auto deg = static_cast<std::int64_t>(nbrs.size());
    if (deg <= fanout) {
      for (NodeId u : nbrs) add_edge(u);
    } else {
      scratch.CoverDegree(deg);
      DrawReservoir(rng, nbrs.data(), deg, fanout, scratch.recip.data(), reservoir.data(),
                    {scratch.hit_slot.data(), scratch.hit_nbr.data()});
      rng = rng.Skipped(static_cast<std::uint64_t>(deg - fanout));
      for (std::int64_t i = 0; i < fanout; ++i) {
        add_edge(reservoir[static_cast<std::size_t>(i)]);
      }
    }
  }
  return block;
}

SampledBatch NeighborSampler::Sample(std::span<const NodeId> seeds, Rng& rng) const {
  SampledBatch batch;
  batch.seeds.assign(seeds.begin(), seeds.end());
  // Sample outward from the seeds; each hop's source set (dst prefix + new
  // neighbors) is the next hop's destination frontier, read in place.
  // blocks[0] must be the layer furthest from the seeds, so hop k fills
  // blocks[L-1-k].
  const std::size_t layers = fanouts_.size();
  batch.blocks.resize(layers);
  std::span<const NodeId> frontier = seeds;
  for (std::size_t k = 0; k < layers; ++k) {
    Block& b = batch.blocks[layers - 1 - k];
    b = SampleLayer(frontier, fanouts_[k], rng);
    frontier = b.src_nodes;
  }
  return batch;
}

}  // namespace apt
