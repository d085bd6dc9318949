#include "training.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "compat.h"
#include "mirror_trainer.h"
#include "report.h"
#include "runtime/parallel_for.h"
#include "spans.h"

namespace perfbench {

using namespace apt;

void TrainingRig::BuildTrainers() {
  const double t0 = Now();
  trainers.clear();
  for (const TrainerSetup& s : setups) {
    trainers.push_back(std::make_unique<ParallelTrainer>(dataset, s));
  }
  build_s = Now() - t0;
}

namespace {

/// Epoch results of a closed loop: one entry per strategy per round.
struct Rounds {
  std::vector<std::vector<EpochStats>> epochs;
  std::vector<std::vector<double>> host_s;  ///< wall, per strategy, one per round
  std::vector<std::vector<double>> cpu_s;   ///< user + sys, likewise
  double ops = 0.0;                         ///< operations of all rounds
  std::int64_t steps = 0;

  /// Operations per wall second of an undisturbed round: the sum of each
  /// strategy's fastest epoch. The host is shared, and the time other
  /// tenants take comes in bursts that the fastest epoch is least exposed to.
  double Throughput() const { return PerRound(host_s); }
  /// The same per CPU second of the process, which excludes the time the
  /// hypervisor steals from this machine's cores.
  double CpuThroughput() const { return PerRound(cpu_s); }

  double PerRound(const std::vector<std::vector<double>>& seconds) const {
    double round_s = 0.0;
    for (const std::vector<double>& s : seconds) round_s += Fastest(s);
    return ops / static_cast<double>(epochs.size()) / round_s;
  }
  static double Fastest(const std::vector<double>& s) {
    return *std::min_element(s.begin(), s.end());
  }
};

/// Every trainer trains one epoch per round (epochs 0, 1, ...) until
/// `budget_s` host seconds have passed; at least one round runs.
template <class Trainer>
Rounds TrainRounds(std::vector<std::unique_ptr<Trainer>>& trainers, const TrainingRig& rig,
                   double budget_s) {
  Rounds r;
  r.host_s.resize(trainers.size());
  r.cpu_s.resize(trainers.size());
  const double end = Now() + budget_s;
  do {
    const auto epoch = static_cast<std::int64_t>(r.epochs.size());
    std::vector<EpochStats> round;
    for (std::size_t i = 0; i < trainers.size(); ++i) {
      Scope span("epoch");
      const Usage u0 = Usage::Take();
      round.push_back(trainers[i]->TrainEpoch(epoch));
      const Usage used = Usage::Take().Since(u0);
      r.host_s[i].push_back(used.wall_s);
      r.cpu_s[i].push_back(used.user_s + used.sys_s);
      const std::int64_t steps =
          round.back().steps_executed + round.back().steps_fast_forwarded;
      r.steps += steps;
      r.ops += rig.count_steps ? static_cast<double>(steps)
                               : static_cast<double>(rig.dataset.train_nodes.size());
    }
    r.epochs.push_back(std::move(round));
  } while (Now() < end);
  return r;
}

bool SameEpoch(const EpochStats& a, const EpochStats& b) {
  return a.loss == b.loss && a.sim_seconds == b.sim_seconds;
}

/// Bit-equality of every epoch both loops ran.
void CheckAgree(Result& r, const Rounds& ref, const Rounds& other, const std::string& what) {
  bool ok = true;
  for (std::size_t e = 0; e < std::min(ref.epochs.size(), other.epochs.size()); ++e) {
    for (std::size_t s = 0; s < ref.epochs[e].size(); ++s) {
      ok = ok && SameEpoch(ref.epochs[e][s], other.epochs[e][s]);
    }
  }
  r.Check(ok, what + ": loss or simulated seconds differ from the untraced run");
}

/// Strategy equivalence: GDP/NFP and SNP/DNP each share their seed
/// assignment, so each pair trains the same model every epoch. Not bit for
/// bit: the strategies sum partial products in different orders, so losses
/// agree to a relative kPairTolerance (the engine's own equivalence tests
/// bound parameter drift the same way).
constexpr double kPairTolerance = 1e-4;

void CheckPairs(Result& r, const Rounds& rounds, const TrainingRig& rig) {
  const auto index = [&](Strategy s) {
    for (std::size_t i = 0; i < rig.setups.size(); ++i) {
      if (rig.setups[i].engine.strategy == s) return i;
    }
    return rig.setups.size();
  };
  const std::pair<Strategy, Strategy> pairs[] = {{Strategy::kGDP, Strategy::kNFP},
                                                 {Strategy::kSNP, Strategy::kDNP}};
  for (const auto& [a, b] : pairs) {
    const std::size_t ia = index(a), ib = index(b);
    bool ok = ia < rig.setups.size() && ib < rig.setups.size();
    for (const auto& round : rounds.epochs) {
      const double la = round[ia].loss, lb = round[ib].loss;
      ok = ok && std::abs(la - lb) <= kPairTolerance * std::max(std::abs(la), std::abs(lb));
    }
    r.Check(ok, std::string(ToString(a)) + " and " + ToString(b) + " losses diverge");
  }
}

double SimSeconds(const Rounds& rounds) {
  double s = 0.0;
  for (const EpochStats& e : rounds.epochs.front()) s += e.sim_seconds;
  return s;
}

void PrintRounds(const char* phase, const Rounds& rounds, const TrainingRig& rig) {
  std::printf("%-10s rounds=%zu steps=%lld throughput=%.1f/s %.1f/cpu_s", phase,
              rounds.epochs.size(), static_cast<long long>(rounds.steps), rounds.Throughput(),
              rounds.CpuThroughput());
  for (std::size_t s = 0; s < rig.setups.size(); ++s) {
    const EpochStats& e = rounds.epochs.front()[s];
    std::printf("  %s:host_s=%.3f,loss=%.17g,sim_s=%.17g",
                ToString(rig.setups[s].engine.strategy), Rounds::Fastest(rounds.host_s[s]), e.loss,
                e.sim_seconds);
  }
  std::printf("\n");
}

void Measure(const Args& args, TrainingRig& rig, bool check_pairs, double setup_s,
             Result& r) {
  const Rounds rounds = TrainRounds(rig.trainers, rig, args.seconds);
  PrintRounds("timed", rounds, rig);
  if (check_pairs) CheckPairs(r, rounds, rig);
  {
    // Thread-count determinism: the pick's first epoch again, on one lane.
    ScopedParallelismLimit one_lane(1);
    ParallelTrainer again(rig.dataset, rig.setups[rig.pick]);
    r.Check(SameEpoch(again.TrainEpoch(0), rounds.epochs.front()[rig.pick]),
            "one-thread epoch differs from the multi-thread epoch");
  }
  r.attempted = rounds.steps;
  r.Add("setup_s", setup_s, "s");
  r.Add("throughput_per_cpu_s", rounds.CpuThroughput(), "1/cpu_s");
  r.Add("peak_rss_mb", Usage::Take().peak_rss_mb, "MB");
  r.Add("sim_result_s", SimSeconds(rounds), "sim_s");
}

void MeasureTraced(const Args& args, TrainingRig& rig, bool check_pairs, Result& r) {
  const double phase_s = args.seconds / 3.0;
  const double build_s = rig.build_s;
  // One untimed round on trainers that are then rebuilt, so that phase A
  // does not pay the process's first-touch costs alone.
  TrainRounds(rig.trainers, rig, 0.0);
  rig.BuildTrainers();

  // A: untraced, all lanes — the reference for every comparison below.
  const Usage u0 = Usage::Take();
  const Rounds plain = TrainRounds(rig.trainers, rig, phase_s);
  const Usage host = Usage::Take().Since(u0);
  PrintRounds("untraced", plain, rig);
  rig.trainers.clear();

  // B: traced. The mirror loop brackets each layer call with a span; where it
  // cannot replay sampled execution, whole library epochs are the spans.
  const bool mirror = kMirrorFastForward || !SampledExecution(rig.setups.front().engine);
  std::vector<std::unique_ptr<MirrorTrainer>> mirrors;
  std::vector<std::unique_ptr<ParallelTrainer>> library;
  for (const TrainerSetup& s : rig.setups) {
    if (mirror) {
      mirrors.push_back(std::make_unique<MirrorTrainer>(rig.dataset, s));
    } else {
      library.push_back(std::make_unique<ParallelTrainer>(rig.dataset, s));
    }
  }
  const CounterMap c0 = Counters();
  SetTracing(true);
  const Rounds traced = mirror ? TrainRounds(mirrors, rig, phase_s)
                               : TrainRounds(library, rig, phase_s);
  SetTracing(false);
  const CounterMap c1 = Counters();
  PrintRounds("traced", traced, rig);
  double flops = 0.0;
  for (const auto& m : mirrors) flops += m->flops();
  mirrors.clear();
  library.clear();

  // C: untraced on one lane, from fresh trainers.
  rig.BuildTrainers();
  Rounds one_lane;
  {
    ScopedParallelismLimit limit(1);
    one_lane = TrainRounds(rig.trainers, rig, phase_s);
  }
  PrintRounds("one-lane", one_lane, rig);

  if (check_pairs) CheckPairs(r, plain, rig);
  CheckAgree(r, plain, traced, "traced run");
  CheckAgree(r, plain, one_lane, "one-lane run");
  r.attempted = plain.steps + traced.steps + one_lane.steps;

  const SpanReport spans = AnalyzeSpans(mirror ? "step" : "epoch");
  r.Add("graph.generate_s", rig.generate_s, "s");
  r.Add("partition.partition_s", rig.partition_s, "s");
  r.Add("apt.dryrun_s", rig.dryrun_s, "s");
  r.Add("engine.trainer_build_s", build_s, "s");
  AddLayerTimes(r, spans,
                {"sampling.sample", "engine.executor_step", "comm.allreduce",
                 "model.optimizer", "engine.probe_step", "comm.fast_forward"});
  const auto exec = spans.layers.find("engine.executor_step");
  r.Add("tensor.gflops",
        exec == spans.layers.end() ? 0.0 : flops / exec->second.total_s / 1e9, "GFLOP/s");
  AddCounters(r, c0, c1, static_cast<double>(traced.steps));
  AddRuntime(r, host, static_cast<double>(plain.steps));
  r.Add("runtime.wall_throughput_per_s", plain.Throughput(), "1/s");
  r.Add("runtime.thread_speedup", plain.Throughput() / one_lane.Throughput(), "ratio");
  r.Add("unattributed_frac", spans.unattributed_frac, "fraction");
  r.Add("trace.throughput_ratio", traced.Throughput() / plain.Throughput(), "ratio");
  r.Add("model.train_loss", plain.epochs.front()[rig.pick].loss, "nats");
}

}  // namespace

Result RunTraining(const Args& args, const RigFactory& make_rig, int setup_repeats,
                   bool check_pairs) {
  // Set up several times and keep the last rig; setup_s is the median.
  std::vector<double> setup_s;
  std::unique_ptr<TrainingRig> rig;
  for (int i = 0; i < (args.trace ? 1 : setup_repeats); ++i) {
    rig.reset();
    rig = make_rig(args.seed);
    setup_s.push_back(rig->total_s);
  }
  std::printf("setup      generate=%.3fs partition=%.3fs dryrun=%.3fs build=%.3fs total=%.3fs\n",
              rig->generate_s, rig->partition_s, rig->dryrun_s, rig->build_s, rig->total_s);
  Result r;
  if (args.trace) {
    MeasureTraced(args, *rig, check_pairs, r);
  } else {
    Measure(args, *rig, check_pairs, Median(setup_s), r);
  }
  return r;
}

}  // namespace perfbench
