#include "apt/dryrun.h"

#include <algorithm>

#include "core/timer.h"
#include "engine/exec_common.h"
#include "engine/pair_routing.h"
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

/// Runs one deterministic epoch of sampling under `assignment`, invoking
/// `visit(per-device batches, their layer-1 blocks)` for each step, and
/// returns the number of steps.
template <typename Visit>
std::int64_t SamplingEpoch(const Dataset& ds, const EngineOptions& opts,
                   const std::vector<PartId>& partition, std::int32_t c,
                   SeedAssignment assignment, const Visit& visit) {
  NeighborSampler sampler(ds.graph, opts.fanouts);
  // The trainer's two scheduling modes: a globally shuffled order sliced
  // into chunks, or DistDGL-style partition-local queues. The order is not
  // the trainer's: MinibatchPlan and PerDeviceEpochQueues run at their
  // default seed 1234, not TrainerSetup::minibatch_seed (777), and every
  // step runs regardless of max_steps_per_epoch (ROADMAP item 3).
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
      per_device = AssignSeeds(step_seeds, assignment, partition, c);
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
    std::vector<const Block*> blocks;
    for (const SampledBatch& b : batches) blocks.push_back(&b.blocks.front());
    visit(batches, blocks);
  }
  return steps;
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
                [&](const std::vector<SampledBatch>& batches, const auto&) {
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
    stores[i] = MakeFeatureStore(dataset, placement, scratch);
    // Byte accounting only (CountGather / LoadSeconds): no rounded copy.
    stores[i]->SetStorageCodec(opts.storage_codec, /*materialize=*/false);
    stores[i]->ConfigureCaches(res.caches[i].cache_nodes,
                               res.caches[i].bytes_per_cached_row);
    res.per_strategy[i].load.assign(static_cast<std::size_t>(c), LoadVolume{});
  }
  const auto store_of = [&](Strategy s) -> const FeatureStore& {
    return *stores[static_cast<std::size_t>(s)];
  };
  auto& gdp = res.per_strategy[static_cast<std::size_t>(Strategy::kGDP)];
  auto& nfp = res.per_strategy[static_cast<std::size_t>(Strategy::kNFP)];
  auto& snp = res.per_strategy[static_cast<std::size_t>(Strategy::kSNP)];
  auto& dnp = res.per_strategy[static_cast<std::size_t>(Strategy::kDNP)];

  // The slowest device bounds each step (the trainer synchronizes at every
  // collective), so sampling and compute sum per-step maxima over devices.
  const auto add_step_maxima = [&](const std::vector<SampledBatch>& batches,
                                   StrategyDryRun& a, StrategyDryRun& b) {
    double sample = 0.0, compute = 0.0;
    for (std::int32_t dev = 0; dev < c; ++dev) {
      const SampledBatch& batch = batches[static_cast<std::size_t>(dev)];
      sample = std::max(sample, SampleSeconds(cluster, dev, batch));
      // The full forward+backward (the paper's strategy-independent T_train),
      // timed by the charge the executors' compute goes through.
      compute = std::max(compute, scratch.ComputeSeconds(dev, StepFlops(probe, batch.blocks, 0)));
    }
    for (StrategyDryRun* st : {&a, &b}) {
      st->sample_seconds += sample;
      st->train_compute_seconds += compute;
    }
  };
  // Adds one step of strategy s, device g loading loads[g]: the slowest
  // device's load bounds the step.
  const auto add_loads = [&](Strategy s, std::span<const StepLoad> loads) {
    StrategyDryRun& st = res.per_strategy[static_cast<std::size_t>(s)];
    double step_load = 0.0;
    for (std::int32_t g = 0; g < c; ++g) {
      const StepLoad& load = loads[static_cast<std::size_t>(g)];
      st.load[static_cast<std::size_t>(g)].Add(load.volume);
      step_load = std::max(step_load, store_of(s).LoadSeconds(g, load.volume));
      st.peak_transient_bytes = std::max(st.peak_transient_bytes, load.transient);
    }
    st.load_seconds += step_load;
  };
  std::vector<StepLoad> loads(static_cast<std::size_t>(c));

  // ---- Pass 2 (chunked): GDP + NFP volumes. ---------------------------------
  const std::int64_t steps =
      SamplingEpoch(dataset, opts, partition, c, SeedAssignment::kChunked,
                    [&](const std::vector<SampledBatch>& batches, const auto& blocks) {
    add_step_maxima(batches, gdp, nfp);
    for (std::int32_t g = 0; g < c; ++g) {
      loads[static_cast<std::size_t>(g)] =
          GdpLoad(store_of(Strategy::kGDP), g, batches[static_cast<std::size_t>(g)].input_nodes());
    }
    add_loads(Strategy::kGDP, loads);
    const NfpPlan plan = BuildNfpPlan(blocks, d, gat);
    add_loads(Strategy::kNFP, NfpLoads(store_of(Strategy::kNFP), plan, d1));
    nfp.graph_shuffle_bytes += plan.graph_bytes;
    nfp.shuffle_rows += plan.partial_rows;  // fwd allreduce + bwd broadcast
  });

  // ---- Pass 3 (partition): SNP + DNP, counted on the executors' plans. ----
  // Each step builds the routing plans the executors run and counts them:
  // the graph shuffle's bytes, each owner's load, and the hidden-shuffle
  // rows each owner receives from other origins (the busiest owner bounds
  // the step).
  const NodeRouter owner_of{&partition};
  const NodeRouter snp_route{&partition, opts.hybrid_intra_machine ? &cluster : nullptr};
  std::int64_t snp_max_rows = 0;  // sum over steps of the busiest owner's rows
  std::int64_t dnp_max_rows = 0;
  NodeRowTable table;
  SnpOwnerInputs snp_in;
  Block dnp_block;
  const auto count_plan = [&](Strategy s, const RoutePlan& plan, std::span<const StepLoad> loads) {
    add_loads(s, loads);
    StrategyDryRun& st = res.per_strategy[static_cast<std::size_t>(s)];
    for (std::int64_t bytes : plan.graph.bytes) st.graph_shuffle_bytes += bytes;
    std::vector<std::int64_t> rows(static_cast<std::size_t>(c), 0);
    for (const RoutePair& pr : plan.routing.pairs) {
      if (pr.origin != pr.owner) rows[static_cast<std::size_t>(pr.owner)] += pr.items();
    }
    for (std::int64_t r : rows) st.shuffle_rows += r;
    return *std::max_element(rows.begin(), rows.end());
  };
  const std::int64_t pass3_steps =
      SamplingEpoch(dataset, opts, partition, c, SeedAssignment::kPartition,
                    [&](const std::vector<SampledBatch>& batches, const auto& blocks) {
    add_step_maxima(batches, snp, dnp);
    const RoutePlan snp_plan =
        gat ? BuildSnpGatPlan(blocks, snp_route) : BuildSnpSagePlan(blocks, snp_route);
    for (std::int32_t g = 0; g < c; ++g) {
      loads[static_cast<std::size_t>(g)] =
          SnpLoad(store_of(Strategy::kSNP), snp_plan, g, gat, d1, table, snp_in);
    }
    snp_max_rows += count_plan(Strategy::kSNP, snp_plan, loads);
    const RoutePlan dnp_plan = BuildDnpPlan(blocks, owner_of);
    for (std::int32_t g = 0; g < c; ++g) {
      loads[static_cast<std::size_t>(g)] =
          DnpLoad(store_of(Strategy::kDNP), dnp_plan, g, table, dnp_block);
    }
    dnp_max_rows += count_plan(Strategy::kDNP, dnp_plan, loads);
  });

  // ---- Convert volumes to seconds with the profiled operator speeds. -------
  const double atob = res.profile.alltoall_bytes_per_s;
  const double arb = res.profile.allreduce_bytes_per_s;
  const double bcb = res.profile.broadcast_bytes_per_s;
  // Per-collective latency terms: the execution engine issues blocking
  // collectives every step, so their fixed costs scale with step count, not
  // bytes. A serialized all-to-all pays (C-1) point-to-point latencies; a
  // ring pays (C-1) hop latencies.
  const MachineSpec& m0 = cluster.machines.front();
  const LinkSpec intra = m0.has_nvlink ? m0.nvlink : m0.pcie;
  const double hop_lat =
      cluster.num_machines() > 1 ? cluster.network.latency_s : intra.latency_s;
  const double coll_lat = static_cast<double>(c - 1) * hop_lat;
  // SNP/DNP: graph shuffle (1 all-to-all); hidden shuffle fwd + bwd (2),
  // over the partition queues' steps they run.
  // NFP: graph broadcast (1); C forward allreduces + 1 grad broadcast.
  const double atoa_graph_lat = static_cast<double>(pass3_steps) * coll_lat;
  const double atoa_shuffle_lat = 2.0 * static_cast<double>(pass3_steps) * coll_lat;
  const double nfp_shuffle_lat = static_cast<double>(steps) * (c + 1) * coll_lat;
  // load_seconds was accumulated as a sum of per-step maxima above (the
  // slowest device bounds every step because the engine's collectives are
  // blocking), matching the trainer's phase accounting.
  // Graph shuffles: NFP broadcast, SNP/DNP all-to-all.
  nfp.graph_shuffle_seconds =
      (bcb > 0 ? static_cast<double>(nfp.graph_shuffle_bytes) / bcb : 0.0) +
      static_cast<double>(steps) * coll_lat;
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
  // SNP/DNP: 2 d' per shuffled row (N_vs, N_vd); the busiest owner's rows
  // bound each step.
  for (const auto& [st, max_rows] :
       {std::pair(&snp, snp_max_rows), std::pair(&dnp, dnp_max_rows)}) {
    const double max_bytes = 2.0 * static_cast<double>(max_rows) * d1 * kF;
    st->graph_shuffle_seconds =
        (atob > 0 ? static_cast<double>(st->graph_shuffle_bytes) / (atob * c) : 0.0) +
        atoa_graph_lat;
    st->shuffle_bytes = 2 * st->shuffle_rows * d1 * kF;
    st->shuffle_seconds = (atob > 0 ? max_bytes * wire_ratio / atob : 0.0) + atoa_shuffle_lat;
    st->codec_seconds = wire_compresses ? 2.0 * max_bytes / mem_bw : 0.0;
  }
  for (auto& st : res.per_strategy) {
    st.shuffle_wire_bytes =
        static_cast<std::int64_t>(static_cast<double>(st.shuffle_bytes) * wire_ratio);
  }
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
