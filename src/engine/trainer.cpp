#include "engine/trainer.h"

#include <algorithm>
#include <cmath>

#include "engine/exec_common.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "sampling/neighbor_sampler.h"

namespace apt {

namespace {

/// Collective-fault recovery: give up (rethrow) after this many retries of
/// one step; before attempt k every device sits out a simulated backoff of
/// kBackoffBaseS * 2^(k-1), charged as kTrain so retries show in epoch time.
constexpr int kMaxRetriesPerStep = 3;
constexpr double kBackoffBaseS = 0.05;

/// Telemetry series the trainer feeds, resolved once per epoch (handles are
/// stable; the lookup mutex stays off the step path). Null when disabled.
struct StepTelemetry {
  obs::TimeSeries* epoch = nullptr;     ///< epoch wall duration
  obs::TimeSeries* step = nullptr;      ///< step wall duration
  obs::TimeSeries* sample = nullptr;    ///< per-step sample-phase delta
  obs::TimeSeries* gather = nullptr;    ///< per-step load-phase delta
  obs::TimeSeries* shuffle = nullptr;   ///< sample-phase comm delta
  obs::TimeSeries* compute = nullptr;   ///< train-phase non-comm delta
  obs::TimeSeries* sync = nullptr;      ///< train-phase comm delta
  obs::TimeSeries* dev_busy = nullptr;  ///< per-device non-comm busy delta

  static StepTelemetry Resolve(double window_s) {
    StepTelemetry t;
    if (window_s <= 0.0) return t;
    auto& reg = obs::Telemetry::Global();
    t.epoch = &reg.series("train.epoch.s", window_s);
    t.step = &reg.series("train.step.s", window_s);
    t.sample = &reg.series("train.stage.sample.s", window_s);
    t.gather = &reg.series("train.stage.gather.s", window_s);
    t.shuffle = &reg.series("train.stage.shuffle.s", window_s);
    t.compute = &reg.series("train.stage.compute.s", window_s);
    t.sync = &reg.series("train.stage.sync.s", window_s);
    t.dev_busy = &reg.series("train.device.busy_s", window_s);
    return t;
  }

  bool on() const { return step != nullptr; }
};

/// Sum over phases of this device's non-communication busy time: the
/// quantity whose cross-device skew exposes a straggler (barrier waits
/// equalize the raw clocks, comm time hides in the wait accounting — pure
/// compute/sampling busy time does neither).
double DeviceBusy(const SimContext& sim, DeviceId dev) {
  double busy = 0.0;
  for (int p = 0; p < kNumPhases; ++p) {
    const auto phase = static_cast<Phase>(p);
    busy += sim.PhaseOf(dev, phase) - sim.CommOf(dev, phase);
  }
  return busy;
}

/// Comparable time so far (phase maxima, same convention as
/// CostEstimate::Comparable): sample + load + train-phase communication.
/// In pipelined mode load/shuffle time is overlapped and only its exposed
/// share lands on the phases, so the measured counterpart of the planner's
/// overlap-aware estimate is the stacked phase total.
double ComparableNow(const SimContext& sim, int pipeline_depth) {
  if (pipeline_depth > 1) {
    return sim.PhaseMax(Phase::kSample) + sim.PhaseMax(Phase::kLoad) +
           sim.PhaseMax(Phase::kTrain);
  }
  return sim.PhaseMax(Phase::kSample) + sim.PhaseMax(Phase::kLoad) +
         sim.CommMax(Phase::kTrain);
}

}  // namespace

ParallelTrainer::ParallelTrainer(const Dataset& dataset, TrainerSetup setup)
    : dataset_(&dataset), setup_(std::move(setup)) {
  APT_CHECK_EQ(static_cast<NodeId>(setup_.partition.size()), dataset.graph.num_nodes());
  APT_CHECK_GE(setup_.engine.scale_sample_period, 1) << "scale_sample_period";
  sim_ = std::make_unique<SimContext>(setup_.cluster);
  comm_ = std::make_unique<Communicator>(*sim_);
  if (setup_.feature_placement.empty()) {
    setup_.feature_placement.assign(
        static_cast<std::size_t>(dataset.graph.num_nodes()), MachineId{0});
  }
  store_ = MakeFeatureStore(dataset, setup_.feature_placement, *sim_);
  // Codec wiring. Storage codec first (ConfigureCaches accounts the cache
  // footprint in at-rest bytes); the wire codec also becomes the model's
  // boundary codec so both halves of the canonical rounding (features at the
  // store, layer-0/1 boundary in the model) are in place before any step.
  store_->SetStorageCodec(setup_.engine.storage_codec);
  comm_->SetWireCodecAll(setup_.engine.wire_codec);
  comm_->set_grad_codec(setup_.engine.grad_codec);
  if (!setup_.cache.cache_nodes.empty()) {
    store_->ConfigureCaches(setup_.cache.cache_nodes, setup_.cache.bytes_per_cached_row);
  } else {
    store_->ConfigureCaches(
        std::vector<std::vector<NodeId>>(static_cast<std::size_t>(sim_->num_devices())),
        0);
  }

  const std::int32_t c = sim_->num_devices();
  for (std::int32_t d = 0; d < c; ++d) {
    models_.push_back(std::make_unique<GnnModel>(setup_.model));
    if (CodecIsLossy(setup_.engine.wire_codec)) {
      models_.back()->set_boundary_codec(setup_.engine.wire_codec);
    }
    optimizers_.push_back(std::make_unique<Sgd>(setup_.engine.learning_rate));
    sim_->AllocPersistent(d, models_.back()->ParamBytes() * 3);  // value+grad+opt
  }
  ctx_.sim = sim_.get();
  ctx_.comm = comm_.get();
  ctx_.store = store_.get();
  ctx_.dataset = dataset_;
  ctx_.partition = &setup_.partition;
  ctx_.models = &models_;
  ctx_.opts = setup_.engine;
  executor_ = MakeExecutor(setup_.engine.strategy, ctx_);
}

EpochSchedule ParallelTrainer::Schedule(std::int64_t epoch) const {
  const EngineOptions& opts = setup_.engine;
  return EpochSchedule(dataset_->train_nodes, setup_.partition, sim_->num_devices(),
                       opts.batch_size_per_device, opts.seed_assignment,
                       setup_.minibatch_seed, opts.max_steps_per_epoch, opts.sample_seed,
                       epoch);
}

EpochStats ParallelTrainer::TrainEpoch(std::int64_t epoch) {
  APT_OBS_SCOPE("epoch", "engine",
                {{"epoch", static_cast<double>(epoch), nullptr},
                 {"strategy", 0.0, ToString(setup_.engine.strategy)}});
  const double t0 = sim_->MaxNow();
  double p0[kNumPhases];
  for (int p = 0; p < kNumPhases; ++p) {
    p0[p] = sim_->PhaseMax(static_cast<Phase>(p));
  }
  const double comm0_sample = sim_->CommMax(Phase::kSample);
  const double comm0_train = sim_->CommMax(Phase::kTrain);
  const double comparable0 = ComparableNow(*sim_, setup_.engine.pipeline_depth);

  const EpochSchedule schedule = Schedule(epoch);
  const std::int64_t steps = schedule.steps();
  // Sampled execution (period > 1): execute one step in `period` for real (a
  // probe), advance the rest by replaying the probe's step tape through the
  // clocks. Probes consume SEQUENTIAL minibatch indices (sched_step below),
  // so probe j is bit-identical to step j of an unsampled run — the
  // sampled-parity tests' anchor.
  const std::int64_t period = setup_.engine.scale_sample_period;
  const bool sampled = period > 1;
  StepTape tape;
  StepStats last_stats;
  std::int64_t probe_index = 0, ff_steps = 0;
  double loss = 0.0;
  std::int64_t correct = 0, seeds_done = 0;
  // Per-step cost-model residuals: the dry-run prediction is uniform over
  // steps, the measurement is this step's comparable-time delta.
  const double predicted_per_step =
      steps > 0 ? setup_.predicted_comparable_seconds / static_cast<double>(steps)
                : 0.0;
  double residual_abs_sum = 0.0, residual_abs_max = 0.0;
  // Online telemetry: windowed series on the virtual clock. Recording never
  // advances a clock, so simulated results are bit-identical with telemetry
  // on or off.
  const StepTelemetry telem =
      StepTelemetry::Resolve(setup_.engine.telemetry_window_s);
  std::vector<double> dev_busy0(
      telem.on() ? static_cast<std::size_t>(sim_->num_devices()) : 0, 0.0);
  for (std::int64_t step = 0; step < steps; ++step) {
    APT_OBS_SCOPE("step", "engine", {{"step", static_cast<double>(step), nullptr}});
    const double step_comparable0 = ComparableNow(*sim_, setup_.engine.pipeline_depth);
    double s_sample0 = 0.0, s_load0 = 0.0, s_train0 = 0.0;
    double s_comm_sample0 = 0.0, s_comm_train0 = 0.0;
    if (telem.on()) {
      s_sample0 = sim_->PhaseMax(Phase::kSample);
      s_load0 = sim_->PhaseMax(Phase::kLoad);
      s_train0 = sim_->PhaseMax(Phase::kTrain);
      s_comm_sample0 = sim_->CommMax(Phase::kSample);
      s_comm_train0 = sim_->CommMax(Phase::kTrain);
      for (DeviceId d = 0; d < sim_->num_devices(); ++d) {
        dev_busy0[static_cast<std::size_t>(d)] = DeviceBusy(*sim_, d);
      }
    }
    // Fast-forwarded steps replay the probe's tape; only probes sample.
    const bool probe = !sampled || tape.empty() || (step % period == 0);
    const std::int64_t sched_step = sampled ? probe_index : step;
    const RecoveryOptions& rec = setup_.engine.recovery;
    const double step_wall0 = sim_->MaxNow();
    StepStats s;
    // Retry loop: every attempt re-forks the SAME rng stream and re-zeroes
    // the gradients, so a retried step is bit-identical to an undisturbed
    // one — faults inflate simulated time, never the arithmetic. Parameters
    // are untouched until the optimizer below, so a mid-step failure leaves
    // no residue beyond the (re-zeroed) gradients. A fast-forwarded attempt
    // replays the tape instead; a collective fault consumed mid-replay stays
    // consumed, so the retry replays clean — same semantics as a live retry.
    for (int attempt = 0;; ++attempt) {
      try {
        if (!probe) {
          comm_->FastForwardStep(tape);
          s = last_stats;  // extrapolated from the probe (flagged below)
          break;
        }
        if (sampled) sim_->BeginStepRecord();
        Rng step_rng = schedule.StepRng(sched_step);
        std::vector<DeviceBatch> batches =
            SampleDeviceBatches(ctx_, schedule.StepSeeds(sched_step), step_rng);
        for (auto& m : models_) m->ZeroGrad();
        {
          // Pipelined mode: capture this step's advances and replay them as
          // overlapped micro-batches (no-op scope at depth 1). The scope
          // replays even when a collective fault unwinds mid-step, so the
          // partial charge lands before the retry below. The gradient
          // all-reduce stays outside: it needs every micro-batch's gradients
          // and is the serial tail of the step.
          SimContext::PipelinedStepScope pipelined(*sim_,
                                                   setup_.engine.pipeline_depth);
          s = executor_->Step(batches);
        }
        AllReduceGradients(ctx_);
        break;
      } catch (const FaultError& e) {
        // A faulted probe's partial tape is useless (the replayable unit is
        // one COMPLETED step); the retry records afresh.
        if (sampled && probe) sim_->AbortStepRecord();
        ++recovery_stats_.collective_failures;
        if (!rec.retry_collectives || attempt >= kMaxRetriesPerStep) {
          ++recovery_stats_.giveups;
          obs::Metrics::Global().counter("retry.collective.giveups").Increment();
          // The fault is about to escape the trainer: preserve the last few
          // hundred flight events (including the failing collective's bytes
          // and class) for the post-mortem before unwinding.
          obs::Flight().Record("giveup", ToString(setup_.engine.strategy),
                               sim_->MaxNow(),
                               {{"attempts", static_cast<double>(attempt + 1), nullptr},
                                {"step", static_cast<double>(step), nullptr}});
          obs::Flight().DumpOnFault(std::string("retry budget exhausted: ") + e.what());
          throw;
        }
        ++recovery_stats_.retries;
        obs::Metrics::Global().counter("retry.collective.attempts").Increment();
        sim_->ClearBarrierPoison();
        // Every device sits out the (exponential, simulated) backoff, then
        // re-enters the step together.
        const double backoff = kBackoffBaseS * static_cast<double>(1 << attempt);
        obs::Flight().Record("retry", "collective", sim_->MaxNow(),
                             {{"attempt", static_cast<double>(attempt + 1), nullptr},
                              {"backoff_s", backoff, nullptr}});
        for (DeviceId d = 0; d < sim_->num_devices(); ++d) {
          sim_->AdvanceLabeled(d, backoff, Phase::kTrain, "retry.backoff",
                               {{"attempt", static_cast<double>(attempt + 1), nullptr}});
        }
        sim_->BarrierAll(Phase::kTrain);
      }
    }
    if (rec.step_timeout_s > 0.0 &&
        sim_->MaxNow() - step_wall0 > rec.step_timeout_s) {
      ++recovery_stats_.step_timeouts;
      obs::Metrics::Global().counter("fault.step_timeouts").Increment();
    }
    if (probe) {
      for (std::size_t d = 0; d < models_.size(); ++d) {
        optimizers_[d]->Step(models_[d]->Params());
      }
      // Optimizer work is identical on every replica; charge a nominal cost.
      // Recorded on the tape (kCompute) while a sampled run probes, so
      // fast-forwarded steps charge it too.
      for (DeviceId d = 0; d < sim_->num_devices(); ++d) {
        sim_->ChargeCompute(d, 2.0 * static_cast<double>(models_[0]->ParamBytes()) / 4);
      }
      if (sampled) {
        tape = sim_->EndStepRecord();
        last_stats = s;
        ++probe_index;
      }
    } else {
      ++ff_steps;
    }
    // Simulated-domain step marker on the track's dedicated marker lane:
    // delimits the step for the trace analyzer (latency percentiles) and
    // labels the track with its strategy.
    if (obs::TracingEnabled()) {
      obs::EmitSimSpan(sim_->ObsPid(), sim_->ObsStepLane(), step_wall0,
                       sim_->MaxNow(), "step", "engine",
                       {{"step", static_cast<double>(step), nullptr},
                        {"fast_forward", probe ? 0.0 : 1.0, nullptr},
                        {"strategy", 0.0, ToString(setup_.engine.strategy)}});
    }
    obs::Flight().Record("step", ToString(setup_.engine.strategy), sim_->MaxNow(),
                         {{"step", static_cast<double>(step), nullptr},
                          {"fast_forward", probe ? 0.0 : 1.0, nullptr}});
    if (telem.on()) {
      // All of a step's samples land at the step's END time: the per-stage
      // deltas are only known once the step completes, and co-locating them
      // keeps a window's stage breakdown consistent with its step count.
      const double now = sim_->MaxNow();
      telem.step->Record(now, now - step_wall0);
      telem.sample->Record(now, sim_->PhaseMax(Phase::kSample) - s_sample0);
      telem.gather->Record(now, sim_->PhaseMax(Phase::kLoad) - s_load0);
      telem.shuffle->Record(now, sim_->CommMax(Phase::kSample) - s_comm_sample0);
      const double sync_s = sim_->CommMax(Phase::kTrain) - s_comm_train0;
      telem.sync->Record(now, sync_s);
      telem.compute->Record(now,
                            sim_->PhaseMax(Phase::kTrain) - s_train0 - sync_s);
      for (DeviceId d = 0; d < sim_->num_devices(); ++d) {
        telem.dev_busy->Record(
            now, DeviceBusy(*sim_, d) - dev_busy0[static_cast<std::size_t>(d)]);
      }
    }
    loss += s.loss;
    correct += s.correct;
    seeds_done += s.num_seeds;
    if (setup_.predicted_comparable_seconds > 0.0) {
      const double residual =
          (ComparableNow(*sim_, setup_.engine.pipeline_depth) - step_comparable0) - predicted_per_step;
      residual_abs_sum += std::abs(residual);
      residual_abs_max = std::max(residual_abs_max, std::abs(residual));
    }
  }

  EpochStats stats;
  stats.loss = steps > 0 ? loss / static_cast<double>(steps) : 0.0;
  stats.train_accuracy =
      seeds_done > 0 ? static_cast<double>(correct) / static_cast<double>(seeds_done) : 0.0;
  stats.sample_seconds = sim_->PhaseMax(Phase::kSample) - p0[0];
  stats.load_seconds = sim_->PhaseMax(Phase::kLoad) - p0[1];
  stats.train_seconds = sim_->PhaseMax(Phase::kTrain) - p0[2];
  // Epoch time is reported as the stacked sum of the slowest device's time
  // in each phase (the paper's bar-chart convention). This can exceed the
  // raw clock delta slightly when different devices bound different phases.
  stats.sim_seconds =
      stats.sample_seconds + stats.load_seconds + stats.train_seconds;
  stats.wall_seconds = sim_->MaxNow() - t0;
  stats.comm_sample_seconds = sim_->CommMax(Phase::kSample) - comm0_sample;
  stats.comm_train_seconds = sim_->CommMax(Phase::kTrain) - comm0_train;
  stats.steps_executed = steps - ff_steps;
  stats.steps_fast_forwarded = ff_steps;
  if (obs::TracingEnabled()) {
    obs::EmitSimSpan(sim_->ObsPid(), sim_->ObsStepLane(), t0, sim_->MaxNow(),
                     "epoch", "engine",
                     {{"epoch", static_cast<double>(epoch), nullptr},
                      {"strategy", 0.0, ToString(setup_.engine.strategy)}});
  }
  obs::Flight().Record("epoch", ToString(setup_.engine.strategy), sim_->MaxNow(),
                       {{"epoch", static_cast<double>(epoch), nullptr}});
  if (telem.on()) telem.epoch->Record(sim_->MaxNow(), stats.wall_seconds);

  auto& metrics = obs::Metrics::Global();
  metrics.counter("trainer.epochs").Increment();
  metrics.counter("trainer.steps").Add(steps);
  if (sampled) {
    metrics.counter("trainer.steps_executed").Add(stats.steps_executed);
    metrics.counter("trainer.steps_fast_forwarded").Add(ff_steps);
  }
  if (setup_.predicted_comparable_seconds > 0.0) {
    const double measured = ComparableNow(*sim_, setup_.engine.pipeline_depth) - comparable0;
    const double predicted = setup_.predicted_comparable_seconds;
    metrics.gauge("costmodel.predicted_comparable_s").Set(predicted);
    metrics.gauge("costmodel.measured_comparable_s").Set(measured);
    metrics.gauge("costmodel.residual_s").Set(measured - predicted);
    metrics.gauge("costmodel.residual_rel").Set((measured - predicted) / predicted);
    if (steps > 0) {
      metrics.gauge("costmodel.step_residual_mean_s")
          .Set(residual_abs_sum / static_cast<double>(steps));
      metrics.gauge("costmodel.step_residual_max_s").Set(residual_abs_max);
    }
  }
  return stats;
}

void ParallelTrainer::LoadParams(GnnModel& src) {
  for (auto& model : models_) model->CopyParamsFrom(src);
}

double ParallelTrainer::EvaluateAccuracy(std::span<const NodeId> nodes,
                                         std::uint64_t eval_seed,
                                         std::int64_t batch_size) {
  if (nodes.empty()) return 0.0;
  NeighborSampler sampler(dataset_->graph, setup_.engine.fanouts);
  Rng rng(eval_seed);
  std::int64_t correct = 0;
  const std::int64_t d = dataset_->feature_dim();
  for (std::size_t lo = 0; lo < nodes.size();
       lo += static_cast<std::size_t>(batch_size)) {
    const std::size_t hi = std::min(nodes.size(), lo + static_cast<std::size_t>(batch_size));
    const std::span<const NodeId> seeds = nodes.subspan(lo, hi - lo);
    SampledBatch batch = sampler.Sample(seeds, rng);
    Tensor feats = Tensor::Uninit(batch.blocks[0].num_src(), d);
    store_->Read(batch.blocks[0].src_nodes, 0, d, feats);
    const Tensor logits = models_[0]->ForwardFrom(0, batch.blocks, feats, nullptr);
    for (std::int64_t i = 0; i < logits.rows(); ++i) {
      const float* row = logits.row(i);
      std::int64_t argmax = 0;
      for (std::int64_t j = 1; j < logits.cols(); ++j) {
        if (row[j] > row[argmax]) argmax = j;
      }
      if (argmax ==
          dataset_->labels[static_cast<std::size_t>(seeds[static_cast<std::size_t>(i)])]) {
        ++correct;
      }
    }
  }
  return static_cast<double>(correct) / static_cast<double>(nodes.size());
}

}  // namespace apt
