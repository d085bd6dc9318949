// Fault-tolerant training driver: APT's "Run" stage hardened against the
// injected fault model of apt::sim.
//
// The ResilientRunner wraps an AptSystem and drives epochs like
// AptSystem::Run, with three additions:
//   * the configured FaultPlan is installed on every trainer's SimContext
//     (stragglers, link degradation, collective failures);
//   * collective failures are absorbed by the trainer's retry/backoff loop
//     (RecoveryOptions) instead of aborting training;
//   * at each epoch boundary with observed fault activity, the degraded
//     operator speeds are re-measured (ProfileCommunication under the fault
//     plan at the current simulated time) and the cost models re-evaluated
//     (ReestimateWithProfile). If another strategy is now predicted
//     sufficiently faster, training swaps to it mid-run: parameters carry
//     over (ParallelTrainer::LoadParams), virtual clocks continue from the
//     old trainer's wall time, and the seed-assignment policy is pinned so
//     the minibatch sequence — and hence the learning trajectory — is
//     unchanged (strategy equivalence, Fig 6).
//
// Everything is driven by simulated time and the seeded fault plan, so a
// chaotic run is bit-reproducible for a fixed seed.
#pragma once

#include <memory>
#include <vector>

#include "apt/apt_system.h"
#include "obs/slo.h"
#include "sim/fault.h"

namespace apt {

struct ResilienceOptions {
  FaultPlan faults;  ///< installed on every trainer (may be Empty())
  /// Step-level recovery knobs forwarded into every trainer's EngineOptions.
  RecoveryOptions recovery{.retry_collectives = true};
  /// Re-evaluate the strategy choice at epoch boundaries that saw fault
  /// activity (fault observations or retries during the epoch).
  bool replan_on_degradation = true;
  /// Rules the runner's watchdog evaluates against the trainer's telemetry
  /// windows at every epoch boundary; a fired violation FORCES a re-plan
  /// evaluation even when no fault/timeout signal has been observed — how a
  /// silent straggler (drifted hardware, no injected fault event) still
  /// triggers adaptation. Empty: one default rule,
  /// "train.device.busy_s skew < 1.5" — per-device busy skew within a
  /// window must stay under 1.5x the mean.
  std::vector<obs::SloRule> slo_rules;
};

struct ResilienceReport {
  std::vector<EpochStats> epochs;
  std::vector<Strategy> strategy_per_epoch;  ///< strategy that ran each epoch
  int replans = 0;   ///< re-planning evaluations performed
  int switches = 0;  ///< evaluations that changed the strategy
  RecoveryStats recovery;  ///< merged over all trainers of the run
  double final_sim_seconds = 0.0;  ///< last trainer's simulated wall clock
};

class ResilientRunner {
 public:
  ResilientRunner(AptSystem& system, ResilienceOptions opts);

  /// Plan + train `epochs` epochs under the fault plan. Throws FaultError
  /// only when a collective failure exhausts the retry budget (or retries
  /// are disabled in `opts.recovery`).
  ResilienceReport Run(int epochs);

  /// The currently active trainer (last one created; valid after Run).
  ParallelTrainer& trainer() { return *trainer_; }
  Strategy current_strategy() const { return current_; }

 private:
  /// Measures post-fault speeds and re-selects; swaps trainers on a win.
  /// `force` skips the fault/timeout degradation check — used when the SLO
  /// watchdog has already decided the run is degraded (straggler drift).
  void MaybeReplan(ResilienceReport& report, bool force = false);

  AptSystem* system_;
  ResilienceOptions opts_;
  std::unique_ptr<ParallelTrainer> trainer_;
  Strategy current_ = Strategy::kGDP;
  SeedAssignment pinned_assignment_ = SeedAssignment::kChunked;
  std::int64_t faults_seen_ = 0;  ///< trainer FaultsObserved at last check
};

}  // namespace apt
