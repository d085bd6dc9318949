#include "comm/profiler.h"

#include <vector>

#include "comm/collectives.h"
#include "sim/sim_context.h"

namespace apt {

namespace {

/// Shared implementation: when `faults` is non-null, each trial context gets
/// the plan installed (minus collective faults) and its clocks advanced to
/// `at_time_s` before the trial, so link faults active at that simulated
/// time degrade the measured speeds.
CommProfile ProfileImpl(const ClusterSpec& cluster, std::int64_t trial_bytes,
                        const FaultPlan* faults, double at_time_s) {
  CommProfile profile;
  const std::int32_t c = cluster.num_devices();
  const std::int64_t cols = 64;
  const std::int64_t rows =
      std::max<std::int64_t>(1, trial_bytes / (cols * static_cast<std::int64_t>(sizeof(float))));
  // One device's fp32 trial tensor. The trial communicators keep the
  // identity codec, so wire bytes equal logical bytes.
  const std::int64_t bytes = rows * cols * static_cast<std::int64_t>(sizeof(float));

  const auto prepare = [&](SimContext& ctx) {
    if (faults == nullptr) return;
    ctx.InstallFaults(faults->WithoutCollectiveFaults());
    for (DeviceId d = 0; d < c; ++d) ctx.Advance(d, at_time_s, Phase::kTrain);
  };
  const auto elapsed = [&](const SimContext& ctx) {
    return std::max(1e-12, ctx.MaxNow() - (faults != nullptr ? at_time_s : 0.0));
  };

  // --- AllToAll: every device sends rows/C to every peer. -----------------
  {
    SimContext ctx(cluster);
    prepare(ctx);
    Communicator comm(ctx);
    const std::int64_t rows_per_peer = std::max<std::int64_t>(1, rows / std::max(1, c));
    AllToAllTraffic traffic;
    for (DeviceId i = 0; i < c; ++i) {
      for (DeviceId j = 0; j < c; ++j) {
        traffic.Add(j, rows_per_peer * cols * static_cast<std::int64_t>(sizeof(float)),
                    comm.WireBytes(rows_per_peer, cols));
      }
      traffic.EndSender();
    }
    comm.ChargeAllToAll(traffic, Phase::kTrain);
    const double per_device_bytes = static_cast<double>(rows_per_peer) * cols *
                                    sizeof(float) * std::max(0, c - 1);
    profile.alltoall_bytes_per_s = per_device_bytes / elapsed(ctx);
  }

  // --- AllReduce of one trial tensor per device. ---------------------------
  {
    SimContext ctx(cluster);
    prepare(ctx);
    Communicator(ctx).ChargeAllReduce(bytes, bytes, Phase::kTrain);
    profile.allreduce_bytes_per_s = static_cast<double>(bytes) / elapsed(ctx);
  }

  // --- AllBroadcast of one trial tensor per device, then the feature-read
  // channels: the link model, degraded by the trial context's faults at
  // `at_time_s`. ---------------------------------------------------------------
  {
    SimContext ctx(cluster);
    prepare(ctx);
    Communicator(ctx).ChargeAllBroadcast(bytes * c, bytes * c, Phase::kTrain);
    profile.broadcast_bytes_per_s = static_cast<double>(bytes) * c / elapsed(ctx);

    const MachineSpec& m0 = cluster.machines.front();
    const LinkSpec intra = ctx.DegradedLink(m0.has_nvlink ? m0.nvlink : m0.pcie,
                                            TrafficClass::kPeerGpu, at_time_s);
    const LinkSpec pcie = ctx.DegradedLink(m0.pcie, TrafficClass::kLocalCpuGpu, at_time_s);
    const LinkSpec network =
        ctx.DegradedLink(cluster.network, TrafficClass::kCrossMachine, at_time_s);
    auto effective = [&](const LinkSpec& link) {
      return static_cast<double>(trial_bytes) / link.TransferSeconds(trial_bytes);
    };
    profile.local_cpu_bytes_per_s = effective(pcie);
    profile.remote_cpu_bytes_per_s =
        cluster.num_machines() > 1 ? effective(network) : 0.0;
    profile.gpu_cache_bytes_per_s = m0.gpu.mem_bandwidth_bytes_per_s;
    profile.peer_gpu_bytes_per_s = effective(intra);
  }
  return profile;
}

}  // namespace

CommProfile ProfileCommunication(const ClusterSpec& cluster, std::int64_t trial_bytes) {
  return ProfileImpl(cluster, trial_bytes, nullptr, 0.0);
}

CommProfile ProfileCommunication(const ClusterSpec& cluster, const FaultPlan& faults,
                                 double at_time_s, std::int64_t trial_bytes) {
  return ProfileImpl(cluster, trial_bytes, &faults, at_time_s);
}

}  // namespace apt
