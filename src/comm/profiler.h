// Communication-bandwidth profiling (the paper's "Prepare" trials).
//
// APT measures the achieved speed of each communication operator before
// planning, so the cost models can convert dry-run volumes into seconds.
// The all-to-all, allreduce and broadcast trials are charged through the same
// Communicator / link model the execution engine uses, on a scratch
// SimContext: the all-to-all from lanes, the rings through ChargeAllReduce
// and ChargeAllBroadcast from the trial size, exactly as the executors
// charge their own collectives. The link model alone decides the charged
// seconds, so no trial tensor is allocated or moved. Planning, re-planning
// and scale sweeps share this one implementation.
#pragma once

#include <cstdint>

#include "sim/fault.h"
#include "sim/hardware.h"

namespace apt {

/// Effective throughput of each operator class, bytes per second, as seen by
/// one device (i.e. payload bytes on that device divided by elapsed time).
struct CommProfile {
  double alltoall_bytes_per_s = 0.0;    ///< sparse all-to-all (SNP/DNP shuffles)
  double allreduce_bytes_per_s = 0.0;   ///< ring allreduce (NFP shuffle, DDP sync)
  double broadcast_bytes_per_s = 0.0;   ///< allgather / AllBroadcast (NFP graphs)
  double local_cpu_bytes_per_s = 0.0;   ///< GPU <- local CPU feature read (UVA)
  double remote_cpu_bytes_per_s = 0.0;  ///< GPU <- remote machine CPU read
  double gpu_cache_bytes_per_s = 0.0;   ///< GPU <- own device memory
  double peer_gpu_bytes_per_s = 0.0;    ///< GPU <- peer GPU (NVLink/PCIe)
};

/// Charges trials of `trial_bytes` per device and derives the profile.
CommProfile ProfileCommunication(const ClusterSpec& cluster,
                                 std::int64_t trial_bytes = 16LL << 20);

/// Re-profiles AS OF simulated time `at_time_s` under an installed fault
/// plan: trial contexts have `faults` installed (collective faults stripped —
/// a probe must not consume them) and their clocks advanced to `at_time_s`,
/// so time-windowed link degradation applies. This is how the recovery layer
/// measures POST-fault operator speeds for re-planning.
CommProfile ProfileCommunication(const ClusterSpec& cluster, const FaultPlan& faults,
                                 double at_time_s,
                                 std::int64_t trial_bytes = 16LL << 20);

}  // namespace apt
