#include "apt/dryrun.h"

#include <algorithm>
#include <unordered_set>

#include "core/timer.h"
#include "engine/exec_common.h"
#include "runtime/parallel_for.h"
#include "sampling/frequency.h"
#include "sampling/minibatch.h"
#include "sampling/neighbor_sampler.h"
#include "sim/sim_context.h"

namespace apt {

std::int64_t Layer0OutDim(const ModelConfig& model) {
  const bool single = model.num_layers == 1;
  if (model.kind == ModelKind::kSage) {
    return single ? model.num_classes : model.hidden_dim;
  }
  return single ? model.num_classes : model.hidden_dim * model.gat_heads;
}

namespace {

constexpr std::int64_t kF = sizeof(float);

/// Mirrors engine/exec_common AssignSeeds without needing an EngineCtx.
std::vector<std::vector<NodeId>> Assign(std::span<const NodeId> seeds,
                                        SeedAssignment assignment,
                                        const std::vector<PartId>& partition,
                                        std::int32_t c) {
  std::vector<std::vector<NodeId>> out(static_cast<std::size_t>(c));
  if (assignment == SeedAssignment::kChunked) {
    const std::size_t n = seeds.size();
    const std::size_t chunk = (n + static_cast<std::size_t>(c) - 1) / c;
    for (std::size_t dev = 0; dev < static_cast<std::size_t>(c); ++dev) {
      const std::size_t lo = std::min(n, dev * chunk);
      const std::size_t hi = std::min(n, lo + chunk);
      out[dev].assign(seeds.begin() + lo, seeds.begin() + hi);
    }
  } else {
    for (NodeId s : seeds) {
      out[static_cast<std::size_t>(partition[static_cast<std::size_t>(s)])].push_back(s);
    }
  }
  return out;
}

/// Execute compute time for one device's batch: the full forward+backward
/// flop count (mirrors exec_common ChargeStepCompute with first_layer = 0;
/// the paper's strategy-independent T_train) through the device's flop rate.
double ComputeCost(const ClusterSpec& cluster, const GnnModel& probe, DeviceId dev,
                   const SampledBatch& batch) {
  const int layers =
      std::min(probe.num_layers(), static_cast<int>(batch.blocks.size()));
  double flops = 0.0;
  for (int k = 0; k < layers; ++k) {
    const Block& b = batch.blocks[static_cast<std::size_t>(k)];
    flops += probe.layer(k).ForwardFlops(b.num_src(), b.num_dst, b.num_edges()) +
             probe.layer(k).BackwardFlops(b.num_src(), b.num_dst, b.num_edges());
  }
  const auto& gpu = cluster.machine(cluster.MachineOf(dev)).gpu;
  return gpu.kernel_launch_s + flops / gpu.EffectiveFlops();
}

/// Runs one deterministic epoch of sampling under `assignment`, invoking
/// `visit(step, per-device batches)` for each step.
template <typename Visit>
void SamplingEpoch(const Dataset& ds, const EngineOptions& opts,
                   const std::vector<PartId>& partition, std::int32_t c,
                   SeedAssignment assignment, const Visit& visit) {
  NeighborSampler sampler(ds.graph, opts.fanouts);
  // Mirrors the trainer's two scheduling modes exactly: a globally shuffled
  // order sliced into chunks, or DistDGL-style partition-local queues.
  MinibatchPlan plan(ds.train_nodes, opts.batch_size_per_device, c);
  const bool partitioned = assignment == SeedAssignment::kPartition;
  const std::vector<NodeId> epoch_seeds =
      partitioned ? std::vector<NodeId>{} : plan.EpochSeeds(0);
  const std::vector<std::vector<NodeId>> queues =
      partitioned
          ? PerDeviceEpochQueues(ds.train_nodes, partition, c, /*epoch=*/0)
          : std::vector<std::vector<NodeId>>{};
  const std::int64_t steps =
      partitioned ? QueueStepsPerEpoch(queues, opts.batch_size_per_device)
                  : plan.StepsPerEpoch();
  Rng epoch_rng = Rng(opts.sample_seed).Fork(0);
  for (std::int64_t step = 0; step < steps; ++step) {
    std::vector<std::vector<NodeId>> per_device;
    if (partitioned) {
      per_device.resize(queues.size());
      for (std::size_t dq = 0; dq < queues.size(); ++dq) {
        const auto slice =
            QueueStepSlice(queues[dq], step, opts.batch_size_per_device);
        per_device[dq].assign(slice.begin(), slice.end());
      }
    } else {
      const std::vector<NodeId> step_seeds = plan.StepSeeds(epoch_seeds, step);
      per_device = Assign(step_seeds, assignment, partition, c);
    }
    const Rng step_rng = epoch_rng.Fork(static_cast<std::uint64_t>(step));
    // Each device forks its own stream and fills only its own slot, so the
    // samples are bit-identical at any lane count; `visit` stays serial.
    std::vector<SampledBatch> batches(static_cast<std::size_t>(c));
    ParallelFor(
        0, c,
        [&](std::int64_t dev) {
          Rng dev_rng = step_rng.Fork(static_cast<std::uint64_t>(dev));
          batches[static_cast<std::size_t>(dev)] =
              sampler.Sample(per_device[static_cast<std::size_t>(dev)], dev_rng);
        },
        /*grain=*/1);
    visit(step, batches);
  }
}

}  // namespace

DryRunResult DryRun(const Dataset& dataset, const ClusterSpec& cluster,
                    const std::vector<PartId>& partition, const EngineOptions& opts,
                    const ModelConfig& model) {
  WallTimer wall;
  DryRunResult res;
  const std::int32_t c = cluster.num_devices();
  const std::int64_t d = dataset.feature_dim();
  const std::int64_t d1 = Layer0OutDim(model);
  const bool gat = model.kind == ModelKind::kGat;
  res.profile = ProfileCommunication(cluster);
  // Parameter-carrying probe for the compute half of the overlap-aware cost
  // model (flop counting only; nothing is ever run through it).
  const GnnModel probe(model);

  // ---- Pass 1 (chunked): node access frequencies. --------------------------
  FrequencyCollector freq(dataset.graph.num_nodes());
  SamplingEpoch(dataset, opts, partition, c, SeedAssignment::kChunked,
                [&](std::int64_t, const std::vector<SampledBatch>& batches) {
                  for (const auto& b : batches) freq.Record(b);
                });
  res.hotness.assign(freq.counts().begin(), freq.counts().end());

  // ---- Cache configuration per strategy (paper §3.2 cache rules). ----------
  for (Strategy s : kAllStrategies) {
    CachePolicyInput in;
    in.strategy = s;
    in.budget_bytes_per_device = opts.cache_bytes_per_device;
    in.feature_dim = d;
    in.num_devices = c;
    in.hotness = res.hotness;
    in.partition = partition;
    in.graph = &dataset.graph;
    in.storage_codec = opts.storage_codec;
    res.caches[static_cast<std::size_t>(s)] = ConfigureCache(in);
  }

  // Scratch store per strategy for tier classification (CountGather only).
  SimContext scratch(cluster);
  const std::vector<MachineId> placement =
      FeaturePlacementFromPartition(partition, cluster);
  std::array<std::unique_ptr<FeatureStore>, kNumStrategies> stores;
  for (Strategy s : kAllStrategies) {
    const auto i = static_cast<std::size_t>(s);
    stores[i] = std::make_unique<FeatureStore>(dataset.features, placement, scratch);
    // Byte accounting only (CountGather / LoadSeconds): no rounded copy.
    stores[i]->SetStorageCodec(opts.storage_codec, /*materialize=*/false);
    stores[i]->ConfigureCaches(res.caches[i].cache_nodes,
                               res.caches[i].bytes_per_cached_row);
  }
  for (auto& st : res.per_strategy) {
    st.load.assign(static_cast<std::size_t>(c), LoadVolume{});
  }
  auto& gdp = res.per_strategy[static_cast<std::size_t>(Strategy::kGDP)];
  auto& nfp = res.per_strategy[static_cast<std::size_t>(Strategy::kNFP)];
  auto& snp = res.per_strategy[static_cast<std::size_t>(Strategy::kSNP)];
  auto& dnp = res.per_strategy[static_cast<std::size_t>(Strategy::kDNP)];

  // ---- Pass 2 (chunked): GDP + NFP volumes. ---------------------------------
  SamplingEpoch(dataset, opts, partition, c, SeedAssignment::kChunked,
                [&](std::int64_t, const std::vector<SampledBatch>& batches) {
    std::int64_t nfp_graph_bytes = 0;
    std::vector<std::int64_t> nfp_transient(static_cast<std::size_t>(c), 0);
    double step_sample_max = 0.0;
    double step_compute_max = 0.0;
    double gdp_step_load = 0.0;
    std::vector<LoadVolume> nfp_step_vol(static_cast<std::size_t>(c));
    for (std::int32_t dev = 0; dev < c; ++dev) {
      const SampledBatch& b = batches[static_cast<std::size_t>(dev)];
      // The slowest device bounds each step (the trainer synchronizes at
      // every collective), so the epoch estimate sums per-step maxima.
      step_sample_max = std::max(step_sample_max, SampleSeconds(cluster, dev, b));
      step_compute_max = std::max(step_compute_max, ComputeCost(cluster, probe, dev, b));
      const Block& b0 = b.blocks.front();
      // GDP: the device loads its own input features at full width.
      const LoadVolume gdp_step =
          stores[static_cast<std::size_t>(Strategy::kGDP)]->CountGather(
              dev, b0.src_nodes, 0, d);
      gdp.load[static_cast<std::size_t>(dev)].Add(gdp_step);
      gdp_step_load = std::max(
          gdp_step_load,
          stores[static_cast<std::size_t>(Strategy::kGDP)]->LoadSeconds(dev, gdp_step));
      gdp.peak_transient_bytes = std::max(gdp.peak_transient_bytes,
                                          2 * b0.num_src() * d * kF);
      // NFP: graph broadcast + every device loads its slice of this graph.
      nfp_graph_bytes += b0.bytes();
      for (std::int32_t g = 0; g < c; ++g) {
        // The executor's column slice of device g: uneven splits give the
        // first d % c devices one more column, devices past d none.
        const auto [lo, hi] = DimSlice(d, c, g);
        const LoadVolume nfp_step =
            stores[static_cast<std::size_t>(Strategy::kNFP)]->CountGather(
                g, b0.src_nodes, lo, hi);
        nfp.load[static_cast<std::size_t>(g)].Add(nfp_step);
        nfp_step_vol[static_cast<std::size_t>(g)].Add(nfp_step);
        nfp_transient[static_cast<std::size_t>(g)] +=
            b0.num_src() * (hi - lo) * kF +
            (gat ? b0.num_src() * d1 * kF : b0.num_dst * d1 * kF);
      }
      // NFP hidden shuffle rows (fwd reduce + bwd broadcast).
      nfp.shuffle_rows += gat ? b0.num_src() : b0.num_dst;
    }
    gdp.sample_seconds += step_sample_max;
    nfp.sample_seconds += step_sample_max;
    gdp.train_compute_seconds += step_compute_max;
    nfp.train_compute_seconds += step_compute_max;
    gdp.load_seconds += gdp_step_load;
    double nfp_step_load = 0.0;
    for (std::int32_t g = 0; g < c; ++g) {
      nfp_step_load = std::max(
          nfp_step_load, stores[static_cast<std::size_t>(Strategy::kNFP)]->LoadSeconds(
                             g, nfp_step_vol[static_cast<std::size_t>(g)]));
    }
    nfp.load_seconds += nfp_step_load;
    nfp.graph_shuffle_bytes += nfp_graph_bytes;
    for (std::int32_t g = 0; g < c; ++g) {
      nfp.peak_transient_bytes = std::max(nfp.peak_transient_bytes,
                                          nfp_transient[static_cast<std::size_t>(g)]);
    }
  });

  // ---- Pass 3 (partition): SNP + DNP volumes. -------------------------------
  std::vector<std::int64_t> snp_dev_rows(static_cast<std::size_t>(c), 0);
  std::vector<std::int64_t> dnp_dev_rows(static_cast<std::size_t>(c), 0);
  std::int64_t snp_step_rows_sum = 0;  // sum over steps of the busiest device
  std::int64_t dnp_step_rows_sum = 0;
  SamplingEpoch(dataset, opts, partition, c, SeedAssignment::kPartition,
                [&](std::int64_t, const std::vector<SampledBatch>& batches) {
    // Per-step, per-owner gather lists. Both SNP and DNP owners gather once
    // per arriving batch, deduplicated within each origin's batch only — the
    // same semantics as the executors (and DGL's per-block feature loading).
    std::vector<std::vector<NodeId>> snp_gather(static_cast<std::size_t>(c));
    std::vector<std::vector<NodeId>> dnp_gather(static_cast<std::size_t>(c));
    std::vector<std::unordered_set<NodeId>> dnp_seen(static_cast<std::size_t>(c));
    std::vector<std::unordered_set<NodeId>> snp_seen(static_cast<std::size_t>(c));
    std::vector<std::int64_t> step_rows_snp(static_cast<std::size_t>(c), 0);
    std::vector<std::int64_t> step_rows_dnp(static_cast<std::size_t>(c), 0);
    double step_sample_max = 0.0;
    double step_compute_max = 0.0;
    for (std::int32_t o = 0; o < c; ++o) {
      step_sample_max =
          std::max(step_sample_max,
                   SampleSeconds(cluster, o, batches[static_cast<std::size_t>(o)]));
      step_compute_max =
          std::max(step_compute_max,
                   ComputeCost(cluster, probe, o, batches[static_cast<std::size_t>(o)]));
    }
    snp.sample_seconds += step_sample_max;
    dnp.sample_seconds += step_sample_max;
    snp.train_compute_seconds += step_compute_max;
    dnp.train_compute_seconds += step_compute_max;
    for (std::int32_t o = 0; o < c; ++o) {
      const SampledBatch& b = batches[static_cast<std::size_t>(o)];
      const Block& b0 = b.blocks.front();
      for (auto& seen : dnp_seen) seen.clear();
      for (auto& seen : snp_seen) seen.clear();
      if (gat) {
        // SNP+GAT: every layer-1 source's z row comes from its owner.
        for (std::int64_t i = 0; i < b0.num_src(); ++i) {
          const NodeId v = b0.src_nodes[static_cast<std::size_t>(i)];
          const auto g = static_cast<std::size_t>(partition[static_cast<std::size_t>(v)]);
          snp_gather[g].push_back(v);
          snp.graph_shuffle_bytes += static_cast<std::int64_t>(g) == o ? 0 : 8;
          if (static_cast<std::int64_t>(g) != o) {
            snp.shuffle_rows += 1;
            ++step_rows_snp[g];
          }
        }
      }
      std::vector<std::uint8_t> touched(static_cast<std::size_t>(c), 0);
      for (std::int64_t i = 0; i < b0.num_dst; ++i) {
        const NodeId dst = b0.src_nodes[static_cast<std::size_t>(i)];
        const auto dst_owner =
            static_cast<std::size_t>(partition[static_cast<std::size_t>(dst)]);
        std::fill(touched.begin(), touched.end(), 0);
        for (std::int64_t e = b0.indptr[static_cast<std::size_t>(i)];
             e < b0.indptr[static_cast<std::size_t>(i) + 1]; ++e) {
          const NodeId u = b0.src_nodes[static_cast<std::size_t>(
              b0.col[static_cast<std::size_t>(e)])];
          const auto g = static_cast<std::size_t>(partition[static_cast<std::size_t>(u)]);
          touched[g] = 1;
          if (!gat) {
            if (snp_seen[g].insert(u).second) snp_gather[g].push_back(u);
            if (static_cast<std::int64_t>(g) != o) snp.graph_shuffle_bytes += 8;
          }
          // DNP ships the full edge list to the destination's owner.
          if (dnp_seen[dst_owner].insert(u).second) {
            dnp_gather[dst_owner].push_back(u);
          }
          if (dst_owner != static_cast<std::size_t>(o)) dnp.graph_shuffle_bytes += 8;
        }
        touched[dst_owner] = 1;  // self term / destination row
        if (!gat && snp_seen[dst_owner].insert(dst).second) {
          snp_gather[dst_owner].push_back(dst);
        }
        if (dnp_seen[dst_owner].insert(dst).second) dnp_gather[dst_owner].push_back(dst);
        if (!gat) {
          // One SNP virtual node per (dst, owner-with-sources) pair.
          for (std::size_t g = 0; g < static_cast<std::size_t>(c); ++g) {
            if (!touched[g]) continue;
            snp.graph_shuffle_bytes += static_cast<std::int64_t>(g) == o ? 0 : 3 * 8;
            if (static_cast<std::int64_t>(g) != o) {
              snp.shuffle_rows += 1;
              ++step_rows_snp[g];
            }
          }
        }
        // One DNP virtual node per remotely-owned destination.
        dnp.graph_shuffle_bytes += dst_owner == static_cast<std::size_t>(o) ? 0 : 2 * 8;
        if (dst_owner != static_cast<std::size_t>(o)) {
          dnp.shuffle_rows += 1;
          ++step_rows_dnp[dst_owner];
        }
      }
    }
    double snp_step_load = 0.0, dnp_step_load = 0.0;
    for (std::int32_t g = 0; g < c; ++g) {
      const auto gi = static_cast<std::size_t>(g);
      const LoadVolume snp_step =
          stores[static_cast<std::size_t>(Strategy::kSNP)]->CountGather(
              g, snp_gather[gi], 0, d);
      const LoadVolume dnp_step =
          stores[static_cast<std::size_t>(Strategy::kDNP)]->CountGather(
              g, dnp_gather[gi], 0, d);
      snp.load[gi].Add(snp_step);
      dnp.load[gi].Add(dnp_step);
      snp_step_load = std::max(
          snp_step_load,
          stores[static_cast<std::size_t>(Strategy::kSNP)]->LoadSeconds(g, snp_step));
      dnp_step_load = std::max(
          dnp_step_load,
          stores[static_cast<std::size_t>(Strategy::kDNP)]->LoadSeconds(g, dnp_step));
      snp.peak_transient_bytes =
          std::max(snp.peak_transient_bytes,
                   2 * static_cast<std::int64_t>(snp_gather[gi].size()) * d * kF);
      dnp.peak_transient_bytes =
          std::max(dnp.peak_transient_bytes,
                   2 * static_cast<std::int64_t>(dnp_gather[gi].size()) * d * kF);
      snp_dev_rows[gi] += step_rows_snp[gi];
      dnp_dev_rows[gi] += step_rows_dnp[gi];
      dnp_seen[gi].clear();
    }
    snp.load_seconds += snp_step_load;
    dnp.load_seconds += dnp_step_load;
    snp_step_rows_sum +=
        *std::max_element(step_rows_snp.begin(), step_rows_snp.end());
    dnp_step_rows_sum +=
        *std::max_element(step_rows_dnp.begin(), step_rows_dnp.end());
  });

  // ---- Convert volumes to seconds with the profiled operator speeds. -------
  const double atob = res.profile.alltoall_bytes_per_s;
  const double arb = res.profile.allreduce_bytes_per_s;
  const double bcb = res.profile.broadcast_bytes_per_s;
  // Per-collective latency terms: the execution engine issues blocking
  // collectives every step, so their fixed costs scale with step count, not
  // bytes. A serialized all-to-all pays (C-1) point-to-point latencies; a
  // ring pays (C-1) hop latencies.
  const std::int64_t steps =
      MinibatchPlan(dataset.train_nodes, opts.batch_size_per_device, c)
          .StepsPerEpoch();
  const MachineSpec& m0 = cluster.machines.front();
  const LinkSpec intra = m0.has_nvlink ? m0.nvlink : m0.pcie;
  const double hop_lat =
      cluster.num_machines() > 1 ? cluster.network.latency_s : intra.latency_s;
  const double coll_lat = static_cast<double>(c - 1) * hop_lat;
  // SNP/DNP: graph shuffle (1 all-to-all); hidden shuffle fwd + bwd (2).
  // NFP: graph broadcast (1); C forward allreduces + 1 grad broadcast.
  const double atoa_graph_lat = static_cast<double>(steps) * coll_lat;
  const double atoa_shuffle_lat = 2.0 * static_cast<double>(steps) * coll_lat;
  const double nfp_shuffle_lat = static_cast<double>(steps) * (c + 1) * coll_lat;
  // load_seconds was accumulated as a sum of per-step maxima above (the
  // slowest device bounds every step because the engine's collectives are
  // blocking), matching the trainer's phase accounting.
  // Graph shuffles: NFP broadcast, SNP/DNP all-to-all.
  nfp.graph_shuffle_seconds =
      (bcb > 0 ? static_cast<double>(nfp.graph_shuffle_bytes) / bcb : 0.0) +
      static_cast<double>(steps) * coll_lat;
  snp.graph_shuffle_seconds =
      (atob > 0 ? static_cast<double>(snp.graph_shuffle_bytes) / (atob * c) : 0.0) +
      atoa_graph_lat;
  dnp.graph_shuffle_seconds =
      (atob > 0 ? static_cast<double>(dnp.graph_shuffle_bytes) / (atob * c) : 0.0) +
      atoa_graph_lat;
  // Hidden-embedding shuffles (forward + backward => factor 2; paper's 2d').
  // These are float-tensor collectives, so the wire codec shrinks what the
  // links carry (CodecDenseRatio at the embedding width) and adds an
  // encode + decode memory pass per transfer (codec_seconds). The identity
  // codec has ratio 1 and zero codec compute — same numbers as before.
  const double wire_ratio = CodecDenseRatio(opts.wire_codec, d1);
  const double mem_bw = m0.gpu.mem_bandwidth_bytes_per_s;
  const bool wire_compresses = opts.wire_codec != Codec::kIdentity;
  nfp.shuffle_bytes = 2 * nfp.shuffle_rows * d1 * kF * c;  // 2 d' C N_d
  // Forward: ring allreduce of the partial embeddings; backward: allgather
  // (broadcast) of the destination gradients — each at its own profiled
  // operator speed, exactly as the engine issues them.
  const double nfp_vol = static_cast<double>(nfp.shuffle_rows) * d1 * kF;
  nfp.shuffle_seconds = (arb > 0 ? nfp_vol * wire_ratio / arb : 0.0) +
                        (bcb > 0 ? nfp_vol * wire_ratio / bcb : 0.0) +
                        nfp_shuffle_lat;
  nfp.codec_seconds = wire_compresses ? 2.0 * 2.0 * nfp_vol / mem_bw : 0.0;
  const std::int64_t snp_max_rows = snp_step_rows_sum;
  const std::int64_t dnp_max_rows = dnp_step_rows_sum;
  snp.shuffle_bytes = 2 * snp.shuffle_rows * d1 * kF;  // 2 d' N_vs
  dnp.shuffle_bytes = 2 * dnp.shuffle_rows * d1 * kF;  // 2 d' N_vd
  for (auto& st : res.per_strategy) {
    st.shuffle_wire_bytes =
        static_cast<std::int64_t>(static_cast<double>(st.shuffle_bytes) * wire_ratio);
  }
  snp.shuffle_seconds =
      (atob > 0 ? 2.0 * static_cast<double>(snp_max_rows) * d1 * kF * wire_ratio / atob
                : 0.0) +
      atoa_shuffle_lat;
  dnp.shuffle_seconds =
      (atob > 0 ? 2.0 * static_cast<double>(dnp_max_rows) * d1 * kF * wire_ratio / atob
                : 0.0) +
      atoa_shuffle_lat;
  snp.codec_seconds = wire_compresses
                          ? 2.0 * 2.0 * static_cast<double>(snp_max_rows) * d1 * kF / mem_bw
                          : 0.0;
  dnp.codec_seconds = wire_compresses
                          ? 2.0 * 2.0 * static_cast<double>(dnp_max_rows) * d1 * kF / mem_bw
                          : 0.0;
  // Serial per-step train tail for the pipelined cost model: the gradient
  // ring-allreduce needs every micro-batch's gradients and the optimizer
  // runs after it, so neither overlaps at any pipeline depth. Optimizer
  // flops mirror the trainer's nominal 2 flops per parameter.
  const double param_bytes = static_cast<double>(probe.ParamBytes());
  const double opt_s =
      m0.gpu.kernel_launch_s + (2.0 * param_bytes / 4.0) / m0.gpu.EffectiveFlops();
  // Gradient codec: the DDP allreduce carries post-codec bytes (for the
  // delta codec this is the shape-only worst case — the dry-run cannot see
  // gradient sparsity) plus an encode/decode pass per step.
  const double grad_wire_bytes = static_cast<double>(CodecWireBytes(
      opts.grad_codec, 1, static_cast<std::int64_t>(param_bytes) / kF));
  const double grad_xcode = opts.grad_codec != Codec::kIdentity
                                ? 2.0 * param_bytes / mem_bw
                                : 0.0;
  res.train_fixed_seconds =
      static_cast<double>(steps) *
      ((arb > 0 ? grad_wire_bytes / arb : 0.0) + coll_lat + opt_s + grad_xcode);
  // Canonical quantized layer-0 backward (GDP/DNP under a lossy wire codec
  // on multi-layer SAGE): three extra double allreduces per step — grid
  // stats, dst counts, and the full layer-0 parameter-grad accumulator.
  if (CodecIsLossy(opts.wire_codec) && model.kind == ModelKind::kSage &&
      model.num_layers >= 2) {
    const double acc_bytes =
        static_cast<double>((2 * d * d1 + d1) + 2 + 1) * sizeof(double);
    res.quantized_sync_seconds =
        static_cast<double>(steps) *
        ((arb > 0 ? acc_bytes / arb : 0.0) + 3.0 * coll_lat);
  }

  // ---- Memory feasibility. ---------------------------------------------------
  const std::int64_t device_mem = cluster.machines.front().gpu.memory_bytes;
  for (Strategy s : kAllStrategies) {
    auto& st = res.per_strategy[static_cast<std::size_t>(s)];
    const auto& cache = res.caches[static_cast<std::size_t>(s)];
    std::int64_t cache_bytes = 0;
    for (const auto& nodes : cache.cache_nodes) {
      cache_bytes = std::max(cache_bytes,
                             static_cast<std::int64_t>(nodes.size()) *
                                 cache.bytes_per_cached_row);
    }
    st.fits_memory = cache_bytes + st.peak_transient_bytes <= device_mem;
  }

  res.wall_seconds = wall.Seconds();
  return res;
}

}  // namespace apt
