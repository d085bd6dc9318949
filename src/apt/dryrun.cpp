#include "apt/dryrun.h"

#include <algorithm>

#include "core/timer.h"
#include "engine/exec_common.h"
#include "engine/pair_routing.h"
#include "sampling/frequency.h"
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

/// Steps through epoch 0 of the trainer's schedule under `assignment`, calls
/// `visit(per-device batches)` per step and returns the step count.
template <typename Visit>
std::int64_t SamplingEpoch(const Dataset& ds, const EngineOptions& opts,
                           const std::vector<PartId>& partition, std::int32_t c,
                           SeedAssignment assignment, const Visit& visit) {
  // Not yet the trainer's epoch: 1234 is not TrainerSetup::minibatch_seed
  // (777) and max_steps_per_epoch is not applied. Passing those moves the
  // hotness, and with it every trainer's cache (ROADMAP item 3).
  const EpochSchedule schedule(ds.train_nodes, partition, c, opts.batch_size_per_device,
                               assignment, /*minibatch_seed=*/1234, /*max_steps=*/0,
                               opts.sample_seed, /*epoch=*/0);
  for (std::int64_t step = 0; step < schedule.steps(); ++step) {
    visit(SampleStep(ds, opts.fanouts, schedule.StepSeeds(step), schedule.StepRng(step)));
  }
  return schedule.steps();
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
                [&](const std::vector<DeviceBatch>& batches) {
                  for (const DeviceBatch& b : batches) freq.Record(b.sample);
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
  const auto add_step_maxima = [&](const std::vector<DeviceBatch>& batches,
                                   StrategyDryRun& a, StrategyDryRun& b) {
    double sample = 0.0, compute = 0.0;
    for (std::int32_t dev = 0; dev < c; ++dev) {
      const SampledBatch& batch = batches[static_cast<std::size_t>(dev)].sample;
      sample = std::max(sample, SampleSeconds(cluster, dev, batch));
      // The full forward+backward (the paper's strategy-independent T_train),
      // timed by the charge the executors' compute goes through.
      compute = std::max(compute, scratch.ComputeSeconds(dev, probe.StepFlops(batch.blocks)));
    }
    for (StrategyDryRun* st : {&a, &b}) {
      st->sample_seconds += sample;
      st->train_compute_seconds += compute;
    }
  };
  // Adds one step of strategy s from the charges its executor commits: each
  // device's load (the slowest bounds the step) and transient, the graph
  // shuffle's bytes (its kSample collective), and the hidden rows of NFP's
  // partial allreduces or of the first kTrain all-to-all (owners to origins).
  const std::int64_t row_bytes = d1 * kF;
  std::array<std::int64_t, kNumStrategies> busiest_rows{};  // summed over steps
  const auto add_charges = [&](Strategy s, const StepCharges& charges) {
    StrategyDryRun& st = res.per_strategy[static_cast<std::size_t>(s)];
    double step_load = 0.0;
    bool forward = true;
    for (const StepCharge& charge : charges) {
      if (const auto* l = std::get_if<LoadCharge>(&charge)) {
        st.load[static_cast<std::size_t>(l->dev)].Add(l->load.volume);
        step_load = std::max(step_load, store_of(s).LoadSeconds(l->dev, l->load.volume));
        st.peak_transient_bytes = std::max(st.peak_transient_bytes, l->load.transient);
      } else if (const auto* r = std::get_if<RingCharge>(&charge)) {
        if (r->phase == Phase::kSample) st.graph_shuffle_bytes += r->bytes;
        if (r->reduce) st.shuffle_rows += r->bytes / row_bytes;
      } else if (const auto* a = std::get_if<AllToAllCharge>(&charge)) {
        const AllToAllTraffic& t = a->traffic;
        if (a->phase == Phase::kSample) {
          for (std::int64_t bytes : t.bytes) st.graph_shuffle_bytes += bytes;
        } else if (forward) {
          forward = false;
          std::int64_t busiest = 0;
          for (std::size_t g = 0; g + 1 < t.indptr.size(); ++g) {
            std::int64_t rows = 0;
            for (auto k = t.indptr[g]; k < t.indptr[g + 1]; ++k) rows += t.bytes[k] / row_bytes;
            st.shuffle_rows += rows;
            busiest = std::max(busiest, rows);
          }
          busiest_rows[static_cast<std::size_t>(s)] += busiest;
        }
      }
    }
    st.load_seconds += step_load;
  };
  std::vector<StepLoad> loads(static_cast<std::size_t>(c));
  const Codec wire = opts.wire_codec;

  // ---- Pass 2 (chunked): GDP + NFP, counted on the executors' charges. -----
  const std::int64_t steps = SamplingEpoch(
      dataset, opts, partition, c, SeedAssignment::kChunked,
      [&](const std::vector<DeviceBatch>& batches) {
        add_step_maxima(batches, gdp, nfp);
        for (std::int32_t g = 0; g < c; ++g) {
          loads[static_cast<std::size_t>(g)] = GdpLoad(
              store_of(Strategy::kGDP), g, batches[static_cast<std::size_t>(g)].sample.input_nodes());
        }
        add_charges(Strategy::kGDP, GdpCharges(probe, batches, loads));
        const NfpPlan plan = BuildNfpPlan(batches, d, gat);
        add_charges(Strategy::kNFP, NfpCharges(probe, batches, plan,
                                               NfpLoads(store_of(Strategy::kNFP), plan, d1), wire));
      });

  // ---- Pass 3 (partition): SNP + DNP, counted on the executors' charges. ---
  const NodeRouter owner_of{&partition};
  const NodeRouter snp_route{&partition, opts.hybrid_intra_machine ? &cluster : nullptr};
  NodeRowTable table;
  SnpOwnerInputs snp_in;
  std::vector<Block> dnp_blocks(static_cast<std::size_t>(c));
  const std::int64_t pass3_steps = SamplingEpoch(
      dataset, opts, partition, c, SeedAssignment::kPartition,
      [&](const std::vector<DeviceBatch>& batches) {
        add_step_maxima(batches, snp, dnp);
        const RoutePlan snp_plan =
            gat ? BuildSnpGatPlan(batches, snp_route) : BuildSnpSagePlan(batches, snp_route);
        for (std::int32_t g = 0; g < c; ++g) {
          loads[static_cast<std::size_t>(g)] =
              SnpLoad(store_of(Strategy::kSNP), snp_plan, g, gat, d1, table, snp_in);
        }
        add_charges(Strategy::kSNP, SnpCharges(probe, batches, snp_plan, loads, wire));
        const RoutePlan dnp_plan = BuildDnpPlan(batches, owner_of);
        for (std::int32_t g = 0; g < c; ++g) {
          loads[static_cast<std::size_t>(g)] = DnpLoad(store_of(Strategy::kDNP), dnp_plan, g,
                                                       table, dnp_blocks[static_cast<std::size_t>(g)]);
        }
        add_charges(Strategy::kDNP, DnpCharges(probe, batches, dnp_plan, loads, dnp_blocks, wire));
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
  for (Strategy s : {Strategy::kSNP, Strategy::kDNP}) {
    StrategyDryRun* st = &res.per_strategy[static_cast<std::size_t>(s)];
    const double max_bytes =
        2.0 * static_cast<double>(busiest_rows[static_cast<std::size_t>(s)]) * d1 * kF;
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
