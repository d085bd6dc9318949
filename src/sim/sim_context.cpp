#include "sim/sim_context.h"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "obs/flight.h"
#include "obs/metrics.h"

namespace apt {

namespace {

/// Metric names per traffic class, resolved once (registry handles are
/// stable for the process lifetime).
obs::Counter& TrafficCounter(TrafficClass c) {
  static obs::Counter* counters[static_cast<std::size_t>(TrafficClass::kNumClasses)] = {
      &obs::Metrics::Global().counter("sim.traffic.local_cpu_gpu.bytes"),
      &obs::Metrics::Global().counter("sim.traffic.peer_gpu.bytes"),
      &obs::Metrics::Global().counter("sim.traffic.cross_machine.bytes"),
  };
  return *counters[static_cast<std::size_t>(c)];
}

obs::Counter& TrafficWireCounter(TrafficClass c) {
  static obs::Counter* counters[static_cast<std::size_t>(TrafficClass::kNumClasses)] = {
      &obs::Metrics::Global().counter("sim.traffic.local_cpu_gpu.wire_bytes"),
      &obs::Metrics::Global().counter("sim.traffic.peer_gpu.wire_bytes"),
      &obs::Metrics::Global().counter("sim.traffic.cross_machine.wire_bytes"),
  };
  return *counters[static_cast<std::size_t>(c)];
}

/// Counter-track key for the wire series of a class. Trace events keep the
/// key by pointer, so these live for the process lifetime.
const char* WireKey(TrafficClass c) {
  static const char* keys[static_cast<std::size_t>(TrafficClass::kNumClasses)] = {
      "local_cpu_gpu.wire", "peer_gpu.wire", "cross_machine.wire"};
  return keys[static_cast<std::size_t>(c)];
}

}  // namespace

const char* ToString(Phase p) {
  switch (p) {
    case Phase::kSample:
      return "sample";
    case Phase::kLoad:
      return "load";
    case Phase::kTrain:
      return "train";
  }
  return "?";
}

const char* ToString(TrafficClass c) {
  switch (c) {
    case TrafficClass::kLocalCpuGpu:
      return "local_cpu_gpu";
    case TrafficClass::kPeerGpu:
      return "peer_gpu";
    case TrafficClass::kCrossMachine:
      return "cross_machine";
    case TrafficClass::kNumClasses:
      break;
  }
  return "?";
}

SimContext::SimContext(ClusterSpec cluster) : cluster_(std::move(cluster)) {
  const auto n = static_cast<std::size_t>(cluster_.num_devices());
  APT_CHECK_GT(n, 0u);
  // Built here (single-threaded) so concurrent consumers (serving workers)
  // never race a lazy build.
  cluster_.EnsureDeviceIndex();
  clocks_.assign(n, 0.0);
  phase_time_.assign(n, {});
  comm_time_.assign(n, {});
  comm_stream_time_.assign(n, {});
  persistent_bytes_.assign(n, 0);
  peak_bytes_.assign(n, 0);
}

std::string SimContext::ObsTrackLabel() const {
  return std::to_string(cluster_.num_machines()) + "m x " +
         std::to_string(num_devices() / cluster_.num_machines()) + "gpu";
}

std::int32_t SimContext::ObsPid() const {
  // Concurrent serving workers may race to the first emission; a mutex keeps
  // the registration single-shot (the id itself is published atomically).
  std::int32_t pid = obs_pid_.load(std::memory_order_acquire);
  if (pid >= 0) return pid;
  static std::mutex register_mutex;
  std::lock_guard<std::mutex> lock(register_mutex);
  pid = obs_pid_.load(std::memory_order_acquire);
  if (pid >= 0) return pid;
  std::vector<std::string> lanes;
  lanes.reserve(2 * static_cast<std::size_t>(num_devices()) + 1);
  for (DeviceId d = 0; d < num_devices(); ++d) {
    lanes.push_back("gpu" + std::to_string(d));
  }
  for (DeviceId d = 0; d < num_devices(); ++d) {
    lanes.push_back("gpu" + std::to_string(d) + ".comm");  // ObsCommLane
  }
  lanes.push_back("steps");  // ObsStepLane: engine markers
  pid = obs::Tracer::Global().RegisterSimTrack(
      ObsTrackLabel(), 2 * num_devices() + 1, std::move(lanes));
  obs_pid_.store(pid, std::memory_order_release);
  return pid;
}

void SimContext::AdvanceInternal(DeviceId dev, double dt, Phase phase,
                                 const char* label,
                                 std::initializer_list<obs::TraceArg> args,
                                 bool comm) {
  APT_CHECK_GE(dt, 0.0) << "negative time step";
  const std::size_t i = Check(dev);
  if (PipelineCapturing() || RecordingStep()) {
    StepTapeOp& op = PushOp(StepTapeOp::Kind::kAdvance);
    op.dev = dev;
    op.dt = dt;
    op.phase = phase;
    op.comm = comm;
    op.label = label;
    for (const obs::TraceArg& a : args) {
      if (op.num_args == obs::kMaxTraceArgs) break;
      op.args[static_cast<std::size_t>(op.num_args++)] = a;
    }
    // Capturing: defer to the micro-batch replay at EndPipelinedStep.
    if (PipelineCapturing()) return;
  }
  const double t0 = clocks_[i];
  clocks_[i] += dt;
  phase_time_[i][static_cast<std::size_t>(phase)] += dt;
  if (comm) comm_time_[i][static_cast<std::size_t>(phase)] += dt;
  if (obs::TracingEnabled() && dt > 0.0) {
    obs::EmitSimSpan(ObsPid(), dev, t0, clocks_[i],
                     label != nullptr ? label : ToString(phase), ToString(phase),
                     args);
  }
#ifndef NDEBUG
  // Only the advanced device: concurrent phases advance different devices
  // from different threads, so the all-device sweep would read torn state.
  DebugCheckClockInvariant(dev);
#endif
}

void SimContext::BarrierAll(Phase phase) {
  if (poisoned_) {
    throw BarrierPoisonedError("barrier poisoned: " + poison_reason_);
  }
  if (PipelineCapturing() || RecordingStep()) {
    PushOp(StepTapeOp::Kind::kBarrier).phase = phase;
    // Capturing: the barrier becomes a per-micro-batch stream-sync point
    // (poison still throws above — it must surface immediately).
    if (PipelineCapturing()) return;
  }
  const double target = MaxNow();
  const bool tracing = obs::TracingEnabled();
  for (std::size_t i = 0; i < clocks_.size(); ++i) {
    const double wait = target - clocks_[i];
    phase_time_[i][static_cast<std::size_t>(phase)] += wait;
    comm_time_[i][static_cast<std::size_t>(phase)] += wait;
    if (tracing && wait > 0.0) {
      obs::EmitSimSpan(ObsPid(), static_cast<std::int32_t>(i), clocks_[i], target,
                       "wait", ToString(phase));
    }
    clocks_[i] = target;
  }
#ifndef NDEBUG
  DebugCheckClockInvariant();
#endif
}

double SimContext::MaxNow() const {
  return *std::max_element(clocks_.begin(), clocks_.end());
}

void SimContext::ResetClocks() {
  std::fill(clocks_.begin(), clocks_.end(), 0.0);
  for (auto& p : phase_time_) p.fill(0.0);
  for (auto& p : comm_time_) p.fill(0.0);
  for (auto& p : comm_stream_time_) p.fill(0.0);
}

double SimContext::PhaseTotal(Phase phase) const {
  double t = 0.0;
  for (const auto& p : phase_time_) t += p[static_cast<std::size_t>(phase)];
  return t;
}

double SimContext::PhaseMax(Phase phase) const {
  double t = 0.0;
  for (const auto& p : phase_time_) {
    t = std::max(t, p[static_cast<std::size_t>(phase)]);
  }
  return t;
}

double SimContext::PhaseOf(DeviceId dev, Phase phase) const {
  return phase_time_[Check(dev)][static_cast<std::size_t>(phase)];
}

double SimContext::CommOf(DeviceId dev, Phase phase) const {
  return comm_time_[Check(dev)][static_cast<std::size_t>(phase)];
}

double SimContext::CommMax(Phase phase) const {
  double t = 0.0;
  for (const auto& p : comm_time_) {
    t = std::max(t, p[static_cast<std::size_t>(phase)]);
  }
  return t;
}

double SimContext::CommStreamOf(DeviceId dev, Phase phase) const {
  return comm_stream_time_[Check(dev)][static_cast<std::size_t>(phase)];
}

double SimContext::CommStreamMax(Phase phase) const {
  double t = 0.0;
  for (const auto& p : comm_stream_time_) {
    t = std::max(t, p[static_cast<std::size_t>(phase)]);
  }
  return t;
}

void SimContext::DebugCheckClockInvariant() const {
  for (DeviceId d = 0; d < num_devices(); ++d) DebugCheckClockInvariant(d);
}

void SimContext::DebugCheckClockInvariant(DeviceId dev) const {
  const std::size_t i = Check(dev);
  double phase_sum = 0.0, comm_sum = 0.0;
  for (int p = 0; p < kNumPhases; ++p) {
    phase_sum += phase_time_[i][static_cast<std::size_t>(p)];
    comm_sum += comm_time_[i][static_cast<std::size_t>(p)];
  }
  const double tol = 1e-9 * std::max(1.0, std::abs(clocks_[i]));
  APT_CHECK(std::abs(phase_sum - clocks_[i]) <= tol)
      << "device " << i << ": phase times sum to " << phase_sum
      << " but clock is " << clocks_[i];
  APT_CHECK(comm_sum <= phase_sum + tol)
      << "device " << i << ": comm time " << comm_sum
      << " exceeds total phase time " << phase_sum;
}

double SimContext::ComputeSeconds(DeviceId dev, double flops) const {
  const DeviceSpec& spec = cluster_.device(dev);
  const double healthy = spec.kernel_launch_s + flops / spec.EffectiveFlops();
  if (faults_.stragglers.empty()) return healthy;
  const double t = clocks_[Check(dev)];
  double factor = 1.0;
  for (std::size_t i = 0; i < faults_.stragglers.size(); ++i) {
    const StragglerFault& s = faults_.stragglers[i];
    if (s.device != dev || !s.ActiveAt(t)) continue;
    factor *= s.slowdown;
    NoteStragglerObserved(i, dev, t);
  }
  return healthy * factor;
}

void SimContext::ChargeCompute(DeviceId dev, double flops) {
  if (RecordingStep()) {
    // Structured op: replay calls ChargeCompute again, so straggler factors
    // re-evaluate at the REPLAY-time clock, not the recorded one.
    StepTapeOp& op = PushOp(StepTapeOp::Kind::kCompute);
    op.dev = dev;
    op.flops = flops;
    RecordSuppressScope suppress(*this);
    AdvanceLabeled(dev, ComputeSeconds(dev, flops), Phase::kTrain, "compute",
                   {{"flops", flops, nullptr}});
    return;
  }
  AdvanceLabeled(dev, ComputeSeconds(dev, flops), Phase::kTrain, "compute",
                 {{"flops", flops, nullptr}});
}

// --- step tape ---------------------------------------------------------------

StepTapeOp& SimContext::PushOp(StepTapeOp::Kind kind) {
  StepTapeOp& op = tape_.ops.emplace_back();
  op.kind = kind;
  op.inner = record_suppress_ > 0;
  return op;
}

void SimContext::BeginStepRecord() {
  APT_CHECK(!recording_) << "step record scopes cannot nest";
  APT_CHECK(!PipelineCapturing()) << "step record inside a pipelined scope";
  APT_CHECK_EQ(record_suppress_, 0);
  recording_ = true;
  tape_.ops.clear();
}

void SimContext::AbortStepRecord() {
  recording_ = false;
  record_suppress_ = 0;
  tape_.ops.clear();
}

StepTape SimContext::EndStepRecord() {
  APT_CHECK(recording_) << "EndStepRecord without BeginStepRecord";
  APT_CHECK_EQ(record_suppress_, 0);
  recording_ = false;
  StepTape out;
  std::swap(out, tape_);
  return out;
}

void SimContext::RecordAllToAll(const AllToAllTraffic& traffic, Phase phase) {
  StepTapeOp& op = PushOp(StepTapeOp::Kind::kAllToAll);
  op.phase = phase;
  op.a2a = traffic;
}

void SimContext::RecordRing(std::int64_t total_bytes, std::int64_t wire_bytes,
                            double factor, Phase phase, const char* label) {
  StepTapeOp& op = PushOp(StepTapeOp::Kind::kRing);
  op.phase = phase;
  op.bytes = total_bytes;
  op.wire_bytes = wire_bytes;
  op.factor = factor;
  op.label = label;
}

TrafficClass SimContext::ClassifyDeviceLink(DeviceId a, DeviceId b) const {
  if (cluster_.MachineOf(a) != cluster_.MachineOf(b)) return TrafficClass::kCrossMachine;
  return TrafficClass::kPeerGpu;
}

TrafficClass SimContext::ClassifyCpuLink(DeviceId dev, MachineId m) const {
  if (cluster_.MachineOf(dev) != m) return TrafficClass::kCrossMachine;
  return TrafficClass::kLocalCpuGpu;
}

void SimContext::CountTraffic(TrafficClass c, std::int64_t bytes,
                              std::int64_t wire_bytes) {
  if (RecordingStep()) {
    // Recorded AND counted: the probe step's own traffic is real; replay
    // re-issues the count so fast-forwarded steps accumulate identically.
    StepTapeOp& op = PushOp(StepTapeOp::Kind::kTraffic);
    op.cls = c;
    op.bytes = bytes;
    op.wire_bytes = wire_bytes;
  }
  const std::size_t i = static_cast<std::size_t>(c);
  const std::int64_t total =
      traffic_bytes_[i].fetch_add(bytes, std::memory_order_relaxed) + bytes;
  const std::int64_t wire_total =
      traffic_wire_bytes_[i].fetch_add(wire_bytes, std::memory_order_relaxed) +
      wire_bytes;
  if (bytes > 0 || wire_bytes > 0) {
    if (bytes > 0) TrafficCounter(c).Add(bytes);
    if (wire_bytes > 0) TrafficWireCounter(c).Add(wire_bytes);
    if (obs::TracingEnabled()) {
      obs::EmitSimCounter(
          ObsPid(), MaxNow(), "traffic_bytes",
          {{ToString(c), static_cast<double>(total), nullptr},
           {WireKey(c), static_cast<double>(wire_total), nullptr}});
    }
  }
}

void SimContext::AllocPersistent(DeviceId dev, std::int64_t bytes) {
  const std::size_t i = Check(dev);
  persistent_bytes_[i] += bytes;
  peak_bytes_[i] = std::max(peak_bytes_[i], persistent_bytes_[i]);
}

void SimContext::NoteTransient(DeviceId dev, std::int64_t bytes) {
  const std::size_t i = Check(dev);
  peak_bytes_[i] = std::max(peak_bytes_[i], persistent_bytes_[i] + bytes);
}

std::int64_t SimContext::PeakMemory(DeviceId dev) const { return peak_bytes_[Check(dev)]; }

bool SimContext::AnyOom() const { return !OomDevices().empty(); }

std::vector<DeviceId> SimContext::OomDevices() const {
  std::vector<DeviceId> out;
  for (DeviceId d = 0; d < num_devices(); ++d) {
    if (peak_bytes_[static_cast<std::size_t>(d)] > cluster_.device(d).memory_bytes) {
      out.push_back(d);
    }
  }
  return out;
}

void SimContext::ResetMemory() {
  std::fill(persistent_bytes_.begin(), persistent_bytes_.end(), 0);
  std::fill(peak_bytes_.begin(), peak_bytes_.end(), 0);
}

// --- fault injection --------------------------------------------------------

namespace {

obs::Counter& FaultCounter(const char* name) {
  return obs::Metrics::Global().counter(name);
}

}  // namespace

void SimContext::InstallFaults(FaultPlan plan) {
  faults_ = std::move(plan);
  next_collective_fault_ = 0;
  // vector<atomic> has no assign; a fresh value-initialized vector zeroes
  // every flag.
  straggler_seen_ =
      std::vector<std::atomic<std::uint8_t>>(faults_.stragglers.size());
  link_seen_ = std::vector<std::atomic<std::uint8_t>>(faults_.links.size());
}

void SimContext::NoteStragglerObserved(std::size_t fault_index, DeviceId dev,
                                       double at_s) const {
  // exchange keeps the emission one-shot under concurrent observers.
  if (straggler_seen_[fault_index].exchange(1, std::memory_order_relaxed)) {
    return;
  }
  faults_observed_.fetch_add(1, std::memory_order_relaxed);
  FaultCounter("fault.straggler.observed").Increment();
  if (obs::TracingEnabled()) {
    const StragglerFault& s = faults_.stragglers[fault_index];
    obs::EmitSimSpan(ObsPid(), dev, at_s, at_s, "fault.straggler", "fault",
                     {{"slowdown", s.slowdown, nullptr}});
  }
}

void SimContext::NoteLinkObserved(std::size_t fault_index, double at_s) const {
  if (link_seen_[fault_index].exchange(1, std::memory_order_relaxed)) return;
  faults_observed_.fetch_add(1, std::memory_order_relaxed);
  FaultCounter("fault.link.observed").Increment();
  if (obs::TracingEnabled()) {
    const LinkFault& l = faults_.links[fault_index];
    obs::EmitSimSpan(ObsPid(), 0, at_s, at_s, "fault.link", "fault",
                     {{"class", 0.0, ToString(static_cast<TrafficClass>(l.link_class))},
                      {"bandwidth_factor", l.bandwidth_factor, nullptr}});
  }
}

LinkSpec SimContext::DegradedLink(LinkSpec base, TrafficClass cls, double at_s) const {
  if (faults_.links.empty()) return base;
  const int c = static_cast<int>(cls);
  for (std::size_t i = 0; i < faults_.links.size(); ++i) {
    const LinkFault& l = faults_.links[i];
    if (l.link_class != c || !l.ActiveAt(at_s)) continue;
    base.bandwidth_bytes_per_s *= l.bandwidth_factor;
    base.latency_s += l.extra_latency_s;
    NoteLinkObserved(i, at_s);
  }
  return base;
}

LinkSpec SimContext::EffectiveLinkBetween(DeviceId a, DeviceId b) const {
  const LinkSpec base = cluster_.LinkBetween(a, b);
  if (faults_.links.empty()) return base;
  const double t = std::max(clocks_[Check(a)], clocks_[Check(b)]);
  return DegradedLink(base, ClassifyDeviceLink(a, b), t);
}

std::optional<double> SimContext::CollectiveFailureFraction(std::int64_t call_bytes) {
  APT_CHECK_GE(call_bytes, 0);
  if (next_collective_fault_ < faults_.collectives.size()) {
    const std::int64_t threshold =
        faults_.collectives[next_collective_fault_].after_bytes;
    if (threshold < collective_bytes_ + call_bytes) {
      ++next_collective_fault_;
      ++faults_observed_;
      FaultCounter("fault.collective.injected").Increment();
      // The collective completed the bytes up to the threshold, then died.
      const double fraction =
          call_bytes > 0
              ? static_cast<double>(std::max<std::int64_t>(0, threshold - collective_bytes_)) /
                    static_cast<double>(call_bytes)
              : 0.0;
      // Arm the next retry with the bytes that DID complete, so an identical
      // retry passes this threshold (each fault fires exactly once).
      collective_bytes_ += std::max<std::int64_t>(0, threshold - collective_bytes_);
      return fraction;
    }
  }
  collective_bytes_ += call_bytes;
  return std::nullopt;
}

void SimContext::PoisonBarrier(const std::string& reason) {
  poisoned_ = true;
  poison_reason_ = reason;
  FaultCounter("fault.barrier.poisoned").Increment();
  // The (dynamic) reason string travels in the flight dump's header via
  // PoisonReason(); the ring event itself only carries literals.
  obs::Flight().Record("barrier.poisoned", nullptr, MaxNow());
  if (obs::TracingEnabled()) {
    const double t = MaxNow();
    obs::EmitSimSpan(ObsPid(), 0, t, t, "fault.barrier_poisoned", "fault");
  }
}

}  // namespace apt
