#include "apt/resilience.h"

#include "apt/cost_model.h"
#include "comm/profiler.h"
#include "core/logging.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/slo.h"

namespace apt {

namespace {

// Swap strategies only when the re-estimate predicts at least this relative
// improvement over staying put (hysteresis against thrash).
constexpr double kMinReplanImprovement = 0.05;

// Watchdog rules for a runner that configured none: per-device busy time in
// any telemetry window must stay under 1.5x the mean across devices. This is
// the pure straggler signal — barrier waits equalize the raw clocks, so only
// busy (non-comm) time separates a drifted device from its peers.
std::vector<obs::SloRule> DefaultSloRules() {
  obs::SloRule skew;
  skew.name = "device_busy_skew";
  skew.series = "train.device.busy_s";
  skew.stat = obs::SloStat::kSkew;
  skew.cmp = obs::SloCmp::kLt;
  skew.bound = 1.5;
  skew.min_count = 2;  // skew is meaningless with fewer than 2 samples
  return {skew};
}

}  // namespace

ResilientRunner::ResilientRunner(AptSystem& system, ResilienceOptions opts)
    : system_(&system), opts_(std::move(opts)) {}

ResilienceReport ResilientRunner::Run(int epochs) {
  const PlanReport& plan = system_->Plan();
  system_->options().recovery = opts_.recovery;
  current_ = plan.selected;
  trainer_ = system_->MakeTrainer(current_);
  pinned_assignment_ = trainer_->setup().engine.seed_assignment;
  trainer_->sim().InstallFaults(opts_.faults);
  faults_seen_ = 0;

  // The watchdog reads the trainer's telemetry windows (busy skew by
  // default) and forces a re-plan evaluation even when no fault or timeout
  // has been observed — the "silent straggler" path. Window closure is
  // evaluated here, between epochs on one thread, so firing is
  // deterministic for a fixed fault seed.
  obs::SloWatchdog watchdog(opts_.slo_rules.empty() ? DefaultSloRules()
                                                   : opts_.slo_rules);
  bool slo_fired = false;
  watchdog.set_callback([&slo_fired](const obs::SloViolation&) {
    slo_fired = true;
    obs::Metrics::Global().counter("replan.slo_trigger").Increment();
  });

  ResilienceReport report;
  report.epochs.reserve(static_cast<std::size_t>(epochs));
  for (int e = 0; e < epochs; ++e) {
    report.strategy_per_epoch.push_back(current_);
    report.epochs.push_back(trainer_->TrainEpoch(e));
    if (e + 1 >= epochs) break;
    slo_fired = false;
    watchdog.Evaluate(trainer_->sim().MaxNow());
    if (opts_.replan_on_degradation || slo_fired) {
      MaybeReplan(report, /*force=*/slo_fired);
    }
  }
  const RecoveryStats& rs = trainer_->recovery_stats();
  report.recovery.collective_failures += rs.collective_failures;
  report.recovery.retries += rs.retries;
  report.recovery.giveups += rs.giveups;
  report.recovery.step_timeouts += rs.step_timeouts;
  report.final_sim_seconds = trainer_->sim().MaxNow();
  return report;
}

void ResilientRunner::MaybeReplan(ResilienceReport& report, bool force) {
  SimContext& sim = trainer_->sim();
  const double now = sim.MaxNow();
  // Only reconsider when something actually degraded this epoch: a fault
  // was newly observed, a step timed out, the plan says a fault window
  // covers the current simulated time — or the SLO watchdog forced us.
  const std::int64_t seen = sim.FaultsObserved();
  const bool active = force || seen > faults_seen_ ||
                      trainer_->recovery_stats().step_timeouts > 0 ||
                      opts_.faults.AnyDegradationAt(now);
  faults_seen_ = seen;
  if (!active) return;

  ++report.replans;
  obs::Metrics::Global().counter("replan.count").Increment();
  // Measure post-fault operator speeds as of the current simulated instant
  // and re-run strategy selection on the dry-run volumes.
  const CommProfile degraded =
      ProfileCommunication(trainer_->setup().cluster, opts_.faults, now);
  const auto estimates =
      ReestimateWithProfile(system_->Plan().dryrun, degraded,
                            trainer_->setup().engine.pipeline_depth);
  const Strategy candidate = SelectStrategy(estimates);
  const double cur_cost =
      estimates[static_cast<std::size_t>(current_)].Comparable();
  const double new_cost =
      estimates[static_cast<std::size_t>(candidate)].Comparable();
  obs::Metrics::Global().gauge("replan.current_cost_s").Set(cur_cost);
  obs::Metrics::Global().gauge("replan.best_cost_s").Set(new_cost);
  if (candidate == current_ || cur_cost <= 0.0 ||
      (cur_cost - new_cost) / cur_cost < kMinReplanImprovement) {
    APT_LOG_DEBUG << "replan: staying on " << ToString(current_) << " (best "
                  << ToString(candidate) << " " << new_cost << "s vs " << cur_cost
                  << "s)";
    return;
  }

  APT_LOG_INFO << "replan: switching " << ToString(current_) << " -> "
               << ToString(candidate) << " at sim t=" << now << "s ("
               << cur_cost << "s -> " << new_cost << "s predicted)";
  ++report.switches;
  obs::Metrics::Global().counter("replan.switches").Increment();
  obs::Flight().Record("replan", ToString(candidate), now,
                       {{"improvement", (cur_cost - new_cost) / cur_cost, nullptr}});
  std::unique_ptr<ParallelTrainer> next =
      system_->MakeTrainer(candidate, pinned_assignment_);
  // Carry the training state (parameters; Sgd is stateless) and the fault
  // timeline across: clocks resume at the old wall time so time-windowed
  // faults neither replay nor vanish. TrainEpoch deltas its stats, so the
  // pre-advance does not pollute epoch accounting.
  next->LoadParams(trainer_->model0());
  next->sim().InstallFaults(opts_.faults);
  for (DeviceId d = 0; d < next->sim().num_devices(); ++d) {
    next->sim().Advance(d, now, Phase::kTrain);
  }
  const RecoveryStats& rs = trainer_->recovery_stats();
  report.recovery.collective_failures += rs.collective_failures;
  report.recovery.retries += rs.retries;
  report.recovery.giveups += rs.giveups;
  report.recovery.step_timeouts += rs.step_timeouts;
  trainer_ = std::move(next);
  current_ = candidate;
  faults_seen_ = trainer_->sim().FaultsObserved();
}

}  // namespace apt
