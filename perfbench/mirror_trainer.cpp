#include "mirror_trainer.h"

#include <algorithm>
#include <optional>

#include "engine/exec_common.h"
#include "spans.h"

namespace perfbench {

using namespace apt;

MirrorTrainer::MirrorTrainer(const Dataset& dataset, TrainerSetup setup)
    : dataset_(&dataset), setup_(std::move(setup)) {
  sim_ = MakeSim(setup_.cluster, setup_.engine);
  comm_ = std::make_unique<Communicator>(*sim_);
  if (setup_.feature_placement.empty()) {
    setup_.feature_placement.assign(static_cast<std::size_t>(dataset.graph.num_nodes()),
                                    MachineId{0});
  }
  if (dataset.features.numel() == 0 && dataset.procedural_feature_dim > 0) {
    store_ = std::make_unique<FeatureStore>(
        dataset.graph.num_nodes(), dataset.procedural_feature_dim,
        dataset.procedural_feature_seed, setup_.feature_placement, *sim_);
  } else {
    store_ = std::make_unique<FeatureStore>(dataset.features, setup_.feature_placement,
                                            *sim_);
  }
  store_->SetStorageCodec(setup_.engine.storage_codec);
  comm_->SetWireCodecAll(setup_.engine.wire_codec);
  comm_->set_grad_codec(setup_.engine.grad_codec);
  if (!setup_.cache.cache_nodes.empty()) {
    store_->ConfigureCaches(setup_.cache.cache_nodes, setup_.cache.bytes_per_cached_row);
  } else {
    store_->ConfigureCaches(
        std::vector<std::vector<NodeId>>(static_cast<std::size_t>(sim_->num_devices())), 0);
  }
  const std::int32_t c = sim_->num_devices();
  for (std::int32_t d = 0; d < c; ++d) {
    models_.push_back(std::make_unique<GnnModel>(setup_.model));
    if (CodecIsLossy(setup_.engine.wire_codec)) {
      models_.back()->set_boundary_codec(setup_.engine.wire_codec);
    }
    optimizers_.push_back(std::make_unique<Sgd>(setup_.engine.learning_rate));
    sim_->AllocPersistent(d, models_.back()->ParamBytes() * 3);
  }
  plan_ = std::make_unique<MinibatchPlan>(dataset.train_nodes,
                                          setup_.engine.batch_size_per_device, c,
                                          setup_.minibatch_seed);
  ctx_.sim = sim_.get();
  ctx_.comm = comm_.get();
  ctx_.store = store_.get();
  ctx_.dataset = dataset_;
  ctx_.partition = &setup_.partition;
  ctx_.models = &models_;
  ctx_.opts = setup_.engine;
  executor_ = MakeExecutor(setup_.engine.strategy, ctx_);
}

EpochStats MirrorTrainer::TrainEpoch(std::int64_t epoch) {
  const EngineOptions& opts = setup_.engine;
  const double t0 = sim_->MaxNow();
  double p0[kNumPhases];
  for (int p = 0; p < kNumPhases; ++p) p0[p] = sim_->PhaseMax(static_cast<Phase>(p));
  const double comm0_sample = sim_->CommMax(Phase::kSample);
  const double comm0_train = sim_->CommMax(Phase::kTrain);

  const bool partitioned = opts.seed_assignment == SeedAssignment::kPartition;
  const std::vector<NodeId> epoch_seeds =
      partitioned ? std::vector<NodeId>{} : plan_->EpochSeeds(epoch);
  const std::vector<std::vector<NodeId>> queues =
      partitioned ? PerDeviceEpochQueues(dataset_->train_nodes, setup_.partition,
                                         sim_->num_devices(), epoch, setup_.minibatch_seed)
                  : std::vector<std::vector<NodeId>>{};
  const std::int64_t full_steps =
      partitioned ? QueueStepsPerEpoch(queues, opts.batch_size_per_device)
                  : plan_->StepsPerEpoch();
  const std::int64_t steps = opts.max_steps_per_epoch > 0
                                 ? std::min(full_steps, opts.max_steps_per_epoch)
                                 : full_steps;
  const bool sampled = SampledExecution(opts);
  const std::int64_t period = std::max<std::int64_t>(1, opts.scale_sample_period);
  StepTape tape;
  StepStats last_stats;
  std::int64_t probe_index = 0, ff_steps = 0;
  double loss = 0.0;
  std::int64_t correct = 0, seeds_done = 0;
  Rng epoch_rng = Rng(opts.sample_seed).Fork(static_cast<std::uint64_t>(epoch));
  for (std::int64_t step = 0; step < steps; ++step) {
    Scope step_span("step");
    const bool probe = !sampled || Empty(tape) || step % period == 0;
    StepStats s;
    if (!probe) {
      Scope ff("comm.fast_forward");
      FastForward(*comm_, tape);
      s = last_stats;
      ++ff_steps;
    } else {
      std::optional<Scope> probe_span;
      if (sampled) probe_span.emplace("engine.probe_step");
      const std::int64_t sched_step = sampled ? probe_index : step;
      std::vector<std::vector<NodeId>> per_device;
      if (partitioned) {
        per_device.resize(queues.size());
        for (std::size_t d = 0; d < queues.size(); ++d) {
          const auto slice =
              QueueStepSlice(queues[d], sched_step, opts.batch_size_per_device);
          per_device[d].assign(slice.begin(), slice.end());
        }
      } else {
        per_device = AssignSeeds(ctx_, plan_->StepSeeds(epoch_seeds, sched_step));
      }
      if (sampled) BeginProbe(*sim_);
      Rng step_rng = epoch_rng.Fork(static_cast<std::uint64_t>(sched_step));
      std::vector<DeviceBatch> batches;
      {
        Scope span("sampling.sample");
        batches = SampleDeviceBatches(ctx_, per_device, step_rng);
      }
      for (auto& m : models_) m->ZeroGrad();
      for (std::size_t d = 0; d < batches.size(); ++d) {
        flops_ += models_[d]->StepFlops(batches[d].sample.blocks);
      }
      {
        Scope span("engine.executor_step");
        SimContext::PipelinedStepScope pipelined(*sim_, opts.pipeline_depth);
        s = executor_->Step(batches);
      }
      {
        Scope span("comm.allreduce");
        AllReduceGradients(ctx_);
      }
      {
        Scope span("model.optimizer");
        for (std::size_t d = 0; d < models_.size(); ++d) {
          optimizers_[d]->Step(models_[d]->Params());
        }
        for (DeviceId d = 0; d < sim_->num_devices(); ++d) {
          sim_->ChargeCompute(d, 2.0 * static_cast<double>(models_[0]->ParamBytes()) / 4);
        }
      }
      if (sampled) {
        tape = EndProbe(*sim_);
        last_stats = s;
        ++probe_index;
      }
    }
    loss += s.loss;
    correct += s.correct;
    seeds_done += s.num_seeds;
  }
  steps_ += steps;

  EpochStats stats;
  stats.loss = steps > 0 ? loss / static_cast<double>(steps) : 0.0;
  stats.train_accuracy =
      seeds_done > 0 ? static_cast<double>(correct) / static_cast<double>(seeds_done) : 0.0;
  stats.sample_seconds = sim_->PhaseMax(Phase::kSample) - p0[0];
  stats.load_seconds = sim_->PhaseMax(Phase::kLoad) - p0[1];
  stats.train_seconds = sim_->PhaseMax(Phase::kTrain) - p0[2];
  stats.sim_seconds = stats.sample_seconds + stats.load_seconds + stats.train_seconds;
  stats.wall_seconds = sim_->MaxNow() - t0;
  stats.comm_sample_seconds = sim_->CommMax(Phase::kSample) - comm0_sample;
  stats.comm_train_seconds = sim_->CommMax(Phase::kTrain) - comm0_train;
  stats.steps_executed = steps - ff_steps;
  stats.steps_fast_forwarded = ff_steps;
  return stats;
}

}  // namespace perfbench
