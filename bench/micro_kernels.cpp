// google-benchmark microbenchmarks for the numeric substrate: GEMM,
// SpMM/SDDMM/segment-softmax kernels, and the neighbor sampler.
//
// Besides the human-readable console table, the run writes one JSON record
// per benchmark to BENCH_micro_kernels.json (op, shape, threads, flops_per_s
// / bytes_per_s, plus the shared run metadata — see bench_gbench.h) so the
// perf trajectory is machine-trackable across PRs. Thread-scaling variants
// pin the fork-join width in-process with ScopedParallelismLimit; their
// names carry the lane count as the last /N.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_gbench.h"
#include "core/random.h"
#include "feature/feature_store.h"
#include "graph/generators.h"
#include "runtime/parallel_for.h"
#include "runtime/thread_pool.h"
#include "sampling/block.h"
#include "sampling/neighbor_sampler.h"
#include "sim/sim_context.h"
#include "tensor/codec.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "tensor/segment_ops.h"

namespace apt {
namespace {

// Effective fork-join lanes for a requested limit (0 = unlimited).
std::int64_t EffectiveLanes(std::int64_t limit) {
  const std::int64_t degree = ThreadPool::Global().ParallelismDegree();
  return limit <= 0 ? degree : std::min(limit, degree);
}

void SetRate(benchmark::State& state, const char* name, double per_iteration) {
  state.counters[name] = benchmark::Counter(
      per_iteration * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate, benchmark::Counter::kIs1000);
}

void SetThreadsCounter(benchmark::State& state, std::int64_t lanes) {
  state.counters["threads"] = benchmark::Counter(static_cast<double>(lanes));
}

Tensor RandTensor(std::int64_t r, std::int64_t c, std::uint64_t seed) {
  Tensor t(r, c);
  Rng rng(seed);
  UniformInit(t, rng, -1.0f, 1.0f);
  return t;
}

void BM_Matmul(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const Tensor a = RandTensor(n, n, 1);
  const Tensor b = RandTensor(n, n, 2);
  Tensor c(n, n);
  for (auto _ : state) {
    Matmul(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  SetRate(state, "flops_per_s", 2.0 * static_cast<double>(n) * n * n);
  SetThreadsCounter(state, EffectiveLanes(0));
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

void BM_MatmulHidden(benchmark::State& state) {
  // The hidden-dim-scale GEMM the executors spend their compute phase in:
  // [batch x in_dim] x [in_dim x hidden]. Last arg = fork-join lane limit
  // (0 = all lanes) for in-process thread-scaling curves.
  const std::int64_t m = 4096, k = 256, n = 256;
  ScopedParallelismLimit limit(state.range(0) == 0
                                   ? ThreadPool::Global().ParallelismDegree()
                                   : state.range(0));
  const Tensor a = RandTensor(m, k, 1);
  const Tensor b = RandTensor(k, n, 2);
  Tensor c(m, n);
  for (auto _ : state) {
    Matmul(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
  SetRate(state, "flops_per_s", 2.0 * static_cast<double>(m) * k * n);
  SetThreadsCounter(state, EffectiveLanes(state.range(0)));
}
BENCHMARK(BM_MatmulHidden)->Arg(1)->Arg(2)->Arg(4)->Arg(0);

void BM_MatmulTallSkinny(benchmark::State& state) {
  // The engine's dominant shape: many rows x feature dim x hidden dim.
  const std::int64_t rows = state.range(0);
  const Tensor a = RandTensor(rows, 128, 3);
  const Tensor b = RandTensor(128, 32, 4);
  Tensor c(rows, 32);
  for (auto _ : state) {
    Matmul(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * rows * 128 * 32);
  SetRate(state, "flops_per_s", 2.0 * static_cast<double>(rows) * 128 * 32);
  SetThreadsCounter(state, EffectiveLanes(0));
}
BENCHMARK(BM_MatmulTallSkinny)->Arg(1024)->Arg(8192);

void BM_MatmulTN(benchmark::State& state) {
  // Weight-gradient shape: [rows x dim]^T x [rows x hidden].
  const std::int64_t rows = state.range(0), dim = 256, hidden = 64;
  const Tensor a = RandTensor(rows, dim, 11);
  const Tensor b = RandTensor(rows, hidden, 12);
  Tensor c(dim, hidden);
  for (auto _ : state) {
    MatmulTN(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * rows * dim * hidden);
  SetRate(state, "flops_per_s", 2.0 * static_cast<double>(rows) * dim * hidden);
  SetThreadsCounter(state, EffectiveLanes(0));
}
BENCHMARK(BM_MatmulTN)->Arg(4096);

void BM_MatmulNT(benchmark::State& state) {
  // Input-gradient shape: [rows x hidden] x [dim x hidden]^T.
  const std::int64_t rows = state.range(0), dim = 256, hidden = 64;
  const Tensor a = RandTensor(rows, hidden, 13);
  const Tensor b = RandTensor(dim, hidden, 14);
  Tensor c(rows, dim);
  for (auto _ : state) {
    MatmulNT(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * rows * dim * hidden);
  SetRate(state, "flops_per_s", 2.0 * static_cast<double>(rows) * dim * hidden);
  SetThreadsCounter(state, EffectiveLanes(0));
}
BENCHMARK(BM_MatmulNT)->Arg(4096);

// GDP-shaped GEMMs: one device's sampled layer in train_fig09 is about
// 3500 rows x feature/hidden dim 128. Args are (rows, k, n): C[rows, n] =
// A[rows, k] W[k, n] forward, dW[k, n] = A^T G contracting over the rows,
// dA[rows, k] = G W^T; n = 24 leaves a column rim past the widest tile.
void SetGemmRate(benchmark::State& state) {
  const double flops = 2.0 * static_cast<double>(state.range(0)) *
                       static_cast<double>(state.range(1)) *
                       static_cast<double>(state.range(2));
  SetRate(state, "flops_per_s", flops);
  SetThreadsCounter(state, EffectiveLanes(0));
}

void BM_GdpMatmul(benchmark::State& state) {
  const std::int64_t rows = state.range(0), k = state.range(1), n = state.range(2);
  const Tensor a = RandTensor(rows, k, 21);
  const Tensor w = RandTensor(k, n, 22);
  Tensor c(rows, n);
  for (auto _ : state) {
    Matmul(a, w, c);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  SetGemmRate(state);
}
BENCHMARK(BM_GdpMatmul)->Args({3500, 128, 128})->Args({3500, 128, 24});

void BM_GdpMatmulTN(benchmark::State& state) {
  const std::int64_t rows = state.range(0), k = state.range(1), n = state.range(2);
  const Tensor a = RandTensor(rows, k, 23);
  const Tensor g = RandTensor(rows, n, 24);
  Tensor dw(k, n);
  for (auto _ : state) {
    MatmulTN(a, g, dw);
    benchmark::DoNotOptimize(dw.data());
    benchmark::ClobberMemory();
  }
  SetGemmRate(state);
}
BENCHMARK(BM_GdpMatmulTN)->Args({3500, 128, 128});

void BM_GdpMatmulNT(benchmark::State& state) {
  const std::int64_t rows = state.range(0), k = state.range(1), n = state.range(2);
  const Tensor g = RandTensor(rows, n, 25);
  const Tensor w = RandTensor(k, n, 26);
  Tensor da(rows, k);
  for (auto _ : state) {
    MatmulNT(g, w, da);
    benchmark::DoNotOptimize(da.data());
    benchmark::ClobberMemory();
  }
  SetGemmRate(state);
}
BENCHMARK(BM_GdpMatmulNT)->Args({3500, 128, 128});

struct SpmmFixture {
  std::vector<std::int64_t> indptr;
  std::vector<std::int64_t> col;
  Tensor src;

  explicit SpmmFixture(std::int64_t num_dst, int fanout, std::int64_t dim) {
    Rng rng(5);
    indptr.push_back(0);
    const std::int64_t num_src = num_dst * 4;
    for (std::int64_t d = 0; d < num_dst; ++d) {
      for (int f = 0; f < fanout; ++f) {
        col.push_back(static_cast<std::int64_t>(
            rng.NextBelow(static_cast<std::uint64_t>(num_src))));
      }
      indptr.push_back(static_cast<std::int64_t>(col.size()));
    }
    src = RandTensor(num_src, dim, 6);
  }
  CsrView csr() const { return {indptr, col}; }
};

void BM_SpmmMean(benchmark::State& state) {
  SpmmFixture f(state.range(0), 10, 64);
  Tensor out(state.range(0), 64);
  for (auto _ : state) {
    SpmmMean(f.csr(), f.src, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * f.csr().num_edges() * 64);
  SetRate(state, "bytes_per_s",
          static_cast<double>(f.csr().num_edges()) * 64 * 2 * sizeof(float));
  SetThreadsCounter(state, EffectiveLanes(0));
}
BENCHMARK(BM_SpmmMean)->Arg(1024)->Arg(8192);

void BM_SpmmMeanBackward(benchmark::State& state) {
  // Gradient scatter through a Block, so the cached transpose path runs —
  // the kernel that used to be fully serial. Last arg = lane limit.
  const std::int64_t num_dst = 8192, dim = 64;
  ScopedParallelismLimit limit(state.range(0) == 0
                                   ? ThreadPool::Global().ParallelismDegree()
                                   : state.range(0));
  SpmmFixture f(num_dst, 10, dim);
  Block blk;
  blk.num_dst = num_dst;
  blk.indptr = f.indptr;
  blk.col = f.col;
  blk.src_nodes.assign(static_cast<std::size_t>(num_dst * 4), 0);
  const Tensor grad_out = RandTensor(num_dst, dim, 9);
  Tensor grad_src(num_dst * 4, dim);
  for (auto _ : state) {
    SpmmMeanBackward(blk.csr(), grad_out, grad_src);
    benchmark::DoNotOptimize(grad_src.data());
  }
  state.SetItemsProcessed(state.iterations() * blk.num_edges() * dim);
  SetRate(state, "bytes_per_s",
          static_cast<double>(blk.num_edges()) * dim * 3 * sizeof(float));
  SetThreadsCounter(state, EffectiveLanes(state.range(0)));
}
BENCHMARK(BM_SpmmMeanBackward)->Arg(1)->Arg(2)->Arg(4)->Arg(0);

void BM_SegmentSoftmax(benchmark::State& state) {
  SpmmFixture f(state.range(0), 10, 1);
  std::vector<float> score(static_cast<std::size_t>(f.csr().num_edges()));
  Rng rng(7);
  for (auto& s : score) s = rng.NextUniform(-2.0f, 2.0f);
  std::vector<float> out(score.size());
  for (auto _ : state) {
    SegmentSoftmax(f.csr(), score, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * f.csr().num_edges());
  SetRate(state, "bytes_per_s",
          static_cast<double>(f.csr().num_edges()) * 2 * sizeof(float));
  SetThreadsCounter(state, EffectiveLanes(0));
}
BENCHMARK(BM_SegmentSoftmax)->Arg(8192);

void BM_CodecRoundBf16(benchmark::State& state) {
  // bf16 encode+decode round trip over a feature-gather-sized payload
  // (rows x 1024 floats). Last arg = fork-join lane limit (0 = all lanes).
  const std::int64_t rows = 4096, cols = 1024;
  ScopedParallelismLimit limit(state.range(0) == 0
                                   ? ThreadPool::Global().ParallelismDegree()
                                   : state.range(0));
  Tensor t = RandTensor(rows, cols, 21);
  for (auto _ : state) {
    CodecRoundRows(Codec::kBf16, t);
    benchmark::DoNotOptimize(t.data());
  }
  const double bytes = static_cast<double>(rows) * cols * sizeof(float);
  state.SetItemsProcessed(state.iterations() * rows * cols);
  SetRate(state, "bytes_per_s", bytes);
  SetThreadsCounter(state, EffectiveLanes(state.range(0)));
}
BENCHMARK(BM_CodecRoundBf16)->Arg(1)->Arg(2)->Arg(4)->Arg(0);

void BM_CodecRoundInt8(benchmark::State& state) {
  // int8 per-row symmetric quantization: register-blocked maxabs reduction
  // plus the scale/clamp pass. Same payload/lane sweep as the bf16 row.
  const std::int64_t rows = 4096, cols = 1024;
  ScopedParallelismLimit limit(state.range(0) == 0
                                   ? ThreadPool::Global().ParallelismDegree()
                                   : state.range(0));
  Tensor t = RandTensor(rows, cols, 22);
  for (auto _ : state) {
    CodecRoundRows(Codec::kInt8, t);
    benchmark::DoNotOptimize(t.data());
  }
  const double bytes = static_cast<double>(rows) * cols * sizeof(float);
  state.SetItemsProcessed(state.iterations() * rows * cols);
  SetRate(state, "bytes_per_s", bytes);
  SetThreadsCounter(state, EffectiveLanes(state.range(0)));
}
BENCHMARK(BM_CodecRoundInt8)->Arg(1)->Arg(2)->Arg(4)->Arg(0);

void BM_NeighborSampling(benchmark::State& state) {
  static const CsrGraph graph = [] {
    ZipfCommunityParams p;
    p.num_nodes = 20000;
    p.num_edges = 300000;
    p.zipf_exponent = 0.8;
    return ZipfCommunityGraph(p);
  }();
  NeighborSampler sampler(graph, {10, 10, 10});
  Rng rng(8);
  std::vector<NodeId> seeds(static_cast<std::size_t>(state.range(0)));
  for (auto& s : seeds) {
    s = static_cast<NodeId>(rng.NextBelow(static_cast<std::uint64_t>(graph.num_nodes())));
  }
  for (auto _ : state) {
    const SampledBatch batch = sampler.Sample(seeds, rng);
    benchmark::DoNotOptimize(batch.blocks.front().num_edges());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  SetThreadsCounter(state, 1);
}
BENCHMARK(BM_NeighborSampling)->Arg(128)->Arg(1024);

// Two hops of fanout 10 from the n highest-degree nodes of an RMAT-16 graph:
// every first-hop row makes thousands of reservoir draws past the fanout.
void BM_SampleRmatHubs(benchmark::State& state) {
  static const CsrGraph graph = Rmat(16, 1 << 20, 0.57, 0.19, 0.19, Rng(12));
  std::vector<NodeId> seeds(static_cast<std::size_t>(graph.num_nodes()));
  for (NodeId v = 0; v < graph.num_nodes(); ++v) seeds[static_cast<std::size_t>(v)] = v;
  const auto hubs = static_cast<std::ptrdiff_t>(state.range(0));
  std::partial_sort(seeds.begin(), seeds.begin() + hubs, seeds.end(), [](NodeId a, NodeId b) {
    return graph.Degree(a) > graph.Degree(b);
  });
  seeds.resize(static_cast<std::size_t>(hubs));
  NeighborSampler sampler(graph, {10, 10});
  Rng rng(9);
  for (auto _ : state) {
    const SampledBatch batch = sampler.Sample(seeds, rng);
    benchmark::DoNotOptimize(batch.blocks.front().num_edges());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  SetThreadsCounter(state, 1);
}
BENCHMARK(BM_SampleRmatHubs)->Arg(16);

// One-lane procedural gather of 1024 rows at dim d under the identity
// codec: rows are generated straight into the output.
void BM_ProceduralGather(benchmark::State& state) {
  const ScopedParallelismLimit one_lane(1);
  constexpr NodeId kNodes = 1 << 18;
  const std::int64_t dim = state.range(0);
  SimContext sim(SingleMachineCluster(1));
  FeatureStore store(kNodes, dim, 11, std::vector<MachineId>(kNodes, 0), sim);
  Rng rng(10);
  std::vector<NodeId> nodes(1024);
  for (NodeId& v : nodes) v = static_cast<NodeId>(rng.NextBelow(kNodes));
  Tensor out(static_cast<std::int64_t>(nodes.size()), dim);
  for (auto _ : state) {
    store.Gather(0, nodes, 0, dim, out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  SetRate(state, "bytes_per_s", static_cast<double>(out.bytes()));
  SetThreadsCounter(state, 1);
}
BENCHMARK(BM_ProceduralGather)->Arg(64);

// An SNP owner's weight gradient at a thousand devices, on one lane: n
// segments, mostly one row, with empty segments between them, into a
// 64 x 32 C.
void BM_SegmentedMatmulOneRow(benchmark::State& state) {
  const ScopedParallelismLimit one_lane(1);
  Rng rng(77);
  std::vector<std::int64_t> segments{0};
  while (static_cast<std::int64_t>(segments.size()) <= state.range(0)) {
    segments.push_back(segments.back() + (rng.NextBelow(4) == 0 ? 0 : 1));
  }
  const Tensor a = RandTensor(segments.back(), 64, 1);
  const Tensor b = RandTensor(segments.back(), 32, 2);
  Tensor c = RandTensor(64, 32, 3);
  for (auto _ : state) {
    SegmentedMatmulTN(a, b, segments, c, 1.0f, 1.0f);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  SetRate(state, "flops_per_s", 2.0 * static_cast<double>(segments.back()) * 64 * 32);
  SetThreadsCounter(state, 1);
}
BENCHMARK(BM_SegmentedMatmulOneRow)->Arg(300);

}  // namespace
}  // namespace apt

int main(int argc, char** argv) {
  return apt::bench::RunGoogleBench("micro_kernels", argc, argv);
}
