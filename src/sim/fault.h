// Deterministic fault injection for the simulated cluster.
//
// A FaultPlan is a seeded, schedulable description of hardware perturbations
// — straggler devices, degraded or flapping links, collective failures —
// expressed entirely in SIMULATED time and byte counts. SimContext and the
// Communicator consume the plan at well-defined points (compute-cost
// evaluation, link-cost evaluation, collective charging), so every chaos
// scenario is bit-reproducible: the same plan on the same workload produces
// the same clocks, the same failures, and the same trace, run after run.
//
// Fault taxonomy (see DESIGN.md "Fault model & recovery"):
//   * StragglerFault  — a device's effective compute throughput drops by a
//     factor for a simulated-time window (thermal throttling, ECC retries).
//   * LinkFault       — a traffic class's bandwidth/latency degrades for a
//     window; an optional flap period makes the degradation oscillate
//     (a renegotiating NVLink or a lossy ToR uplink).
//   * CollectiveFault — the collective that crosses a cumulative wire-byte
//     threshold aborts partway through (an NCCL communicator failure). The
//     failure surfaces as a typed apt::CollectiveError and poisons the
//     context's barrier; each fault fires exactly once.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/types.h"
#include "sim/hardware.h"

namespace apt {

enum class TrafficClass : int;  // sim/sim_context.h

/// Compute-throughput degradation of one device over a time window.
struct StragglerFault {
  DeviceId device = 0;
  double start_s = 0.0;
  double end_s = std::numeric_limits<double>::infinity();
  /// Compute time multiplier while active (2.0 = half throughput). Must
  /// be >= 1: a fault never speeds hardware up.
  double slowdown = 2.0;

  bool ActiveAt(double t) const { return t >= start_s && t < end_s; }
};

/// Bandwidth/latency degradation of one traffic class over a time window,
/// optionally flapping on and off with a fixed period.
struct LinkFault {
  /// Which links degrade (kLocalCpuGpu = PCIe host links, kPeerGpu =
  /// NVLink/PCIe peer links, kCrossMachine = Ethernet).
  int link_class = 1;  ///< TrafficClass as int (header-order decoupling)
  double start_s = 0.0;
  double end_s = std::numeric_limits<double>::infinity();
  /// Remaining bandwidth fraction while active, in (0, 1].
  double bandwidth_factor = 0.5;
  /// Added one-way latency while active, seconds.
  double extra_latency_s = 0.0;
  /// When > 0 the fault flaps: within each period the fault is active for
  /// the first `flap_duty` fraction and dormant for the rest.
  double flap_period_s = 0.0;
  double flap_duty = 1.0;

  bool ActiveAt(double t) const;
};

/// Abort the collective call whose cumulative wire bytes cross `after_bytes`.
struct CollectiveFault {
  std::int64_t after_bytes = 0;
};

/// A complete, deterministic chaos schedule for one SimContext.
struct FaultPlan {
  std::vector<StragglerFault> stragglers;
  std::vector<LinkFault> links;
  std::vector<CollectiveFault> collectives;  ///< consumed in after_bytes order

  bool Empty() const {
    return stragglers.empty() && links.empty() && collectives.empty();
  }

  /// True if any straggler/link fault could be active at time `t` — used by
  /// re-planning to decide whether a degraded profile is worth measuring.
  bool AnyDegradationAt(double t) const;

  /// Copy without collective faults: what bandwidth re-profiling uses (a
  /// profiling trial must measure the degraded links, not trip a one-shot
  /// collective abort that belongs to the training timeline).
  FaultPlan WithoutCollectiveFaults() const;

  /// One line per fault; stable ordering (seeded-plan determinism checks
  /// compare these strings).
  std::string Describe() const;
};

/// Seeded random chaos schedule over `horizon_s` of simulated time:
/// `intensity` in (0, 1] scales how many faults of each kind are drawn.
/// Same (seed, cluster shape, horizon, intensity) => identical plan.
FaultPlan RandomFaultPlan(std::uint64_t seed, const ClusterSpec& cluster,
                          double horizon_s, double intensity = 0.5);

}  // namespace apt
