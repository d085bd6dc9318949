// Simulation context: per-device virtual clocks, phase-attributed time,
// memory accounting, and traffic counters.
//
// Every cost in the reproduction — compute, feature loads, collective
// shuffles — is charged here. The engine advances a device's clock as it
// performs that device's (real, CPU-executed) work; collectives synchronize
// clocks to the latest participant, exactly like a blocking NCCL call.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "core/error.h"
#include "core/types.h"
#include "obs/trace.h"
#include "sim/fault.h"
#include "sim/hardware.h"

namespace apt {

/// Epoch-time components reported by the paper's stacked bars:
/// sampling (incl. shuffling sampled subgraphs), feature loading, and
/// training (incl. shuffling hidden embeddings).
enum class Phase : int { kSample = 0, kLoad = 1, kTrain = 2 };
inline constexpr int kNumPhases = 3;

const char* ToString(Phase p);

/// Traffic classes tracked for the cost model and reports.
enum class TrafficClass : int {
  kLocalCpuGpu = 0,   ///< PCIe: device <-> its machine's CPU memory
  kPeerGpu = 1,       ///< intra-machine device <-> device
  kCrossMachine = 2,  ///< Ethernet
  kNumClasses = 3,
};

const char* ToString(TrafficClass c);

// --- step tape -------------------------------------------------------------
//
// SimContext keeps ONE tape of timing-relevant operations, with two readers:
//
//  * the pipelined scheduler (ReplayPipeline): inside a pipelined scope,
//    advances and barriers land on the tape instead of moving clocks, and
//    the scope exit schedules them as micro-batches;
//  * sampled execution (Communicator::FastForwardStep): the trainer records
//    one really-executed training step and fast-forwards the remaining
//    steps of the period by replaying it through the virtual clocks.
//
// The recorded step is a STRUCTURED record: advances and barriers replay
// literally, while collectives and compute replay through the SAME charging
// code the real step used — so link degradation, straggler inflation, and
// wire-byte fault thresholds re-evaluate at the replay-time clocks exactly as
// a real step would evaluate them.

/// Traffic of one all-to-all as per-sender sparse rows: sender s's lanes
/// are [indptr[s], indptr[s+1]), in ascending peer order. Only off-diagonal
/// lanes whose logical or wire bytes are non-zero are kept (a device's
/// payload to itself is a free local copy), so the record costs
/// O(non-empty lanes), not O(C^2). `bytes` is the logical fp32 volume of a
/// lane; `wire` is the codec bytes that actually cross its link.
struct AllToAllTraffic {
  std::vector<std::int64_t> indptr{0};
  std::vector<DeviceId> peer;
  std::vector<std::int64_t> bytes;
  std::vector<std::int64_t> wire;

  /// Sender whose row Add() currently appends to.
  DeviceId sender() const { return static_cast<DeviceId>(indptr.size() - 1); }
  /// Appends the lane sender() -> `to`; peers must strictly ascend within a
  /// row (Communicator::ChargeAllToAll rejects lanes that do not).
  void Add(DeviceId to, std::int64_t lane_bytes, std::int64_t lane_wire) {
    if (to == sender() || (lane_bytes == 0 && lane_wire == 0)) return;
    peer.push_back(to);
    bytes.push_back(lane_bytes);
    wire.push_back(lane_wire);
  }
  /// Closes sender()'s row; the next Add() appends to the following sender.
  void EndSender() { indptr.push_back(static_cast<std::int64_t>(peer.size())); }
};

struct StepTapeOp {
  enum class Kind : std::uint8_t {
    kAdvance = 0,         ///< flat clock advance (dev, dt, phase, comm)
    kBarrier = 1,         ///< BarrierAll(phase)
    kCompute = 2,         ///< ChargeCompute(dev, flops): straggler re-eval
    kAllToAll = 3,        ///< Communicator all-to-all charge (sparse lanes)
    kRing = 4,            ///< Communicator ring charge (totals + factor)
    kTraffic = 5,         ///< CountTraffic outside a collective (gathers)
    kBeginPipelined = 6,  ///< BeginPipelinedStep(depth)
    kEndPipelined = 7,    ///< EndPipelinedStep()
  };
  Kind kind = Kind::kAdvance;
  /// Issued inside a compound charge (a RecordSuppressScope): only the
  /// pipelined scheduler reads it, and it is dropped once its scope replays.
  bool inner = false;
  DeviceId dev = -1;
  Phase phase = Phase::kTrain;
  bool comm = false;
  std::int8_t num_args = 0;     ///< kAdvance: used entries of `args`
  double dt = 0.0;
  double flops = 0.0;
  const char* label = nullptr;  ///< string literal (TraceArg lifetime rule)
  /// kAdvance: the annotations its pipelined slices carry (literals, as
  /// `label`).
  std::array<obs::TraceArg, obs::kMaxTraceArgs> args{};
  int depth = 1;                ///< kBeginPipelined
  TrafficClass cls = TrafficClass::kLocalCpuGpu;  ///< kTraffic
  std::int64_t bytes = 0;       ///< kRing totals / kTraffic logical bytes
  std::int64_t wire_bytes = 0;
  double factor = 1.0;          ///< kRing volume factor
  /// kAllToAll: the collective's sparse lane traffic. Other ops keep all
  /// four arrays empty (no allocation per recorded op).
  AllToAllTraffic a2a{{}, {}, {}, {}};
};

struct StepTape {
  std::vector<StepTapeOp> ops;
  bool empty() const { return ops.empty(); }
};

class SimContext {
 public:
  explicit SimContext(ClusterSpec cluster);

  const ClusterSpec& cluster() const { return cluster_; }
  std::int32_t num_devices() const { return static_cast<std::int32_t>(clocks_.size()); }

  // --- clocks ---------------------------------------------------------

  double Now(DeviceId dev) const { return clocks_[Check(dev)]; }

  /// Advances dev's clock by dt seconds, attributing the time to `phase`.
  /// When tracing is enabled the advance becomes one slice on dev's trace
  /// lane, named after the phase.
  void Advance(DeviceId dev, double dt, Phase phase) {
    AdvanceInternal(dev, dt, phase, nullptr, {}, /*comm=*/false);
  }

  /// Advance with an explicit trace-slice name and annotations (e.g.
  /// "gather" with byte counts). Accounting is identical to Advance.
  void AdvanceLabeled(DeviceId dev, double dt, Phase phase, const char* label,
                      std::initializer_list<obs::TraceArg> args = {}) {
    AdvanceInternal(dev, dt, phase, label, args, /*comm=*/false);
  }

  /// Advance that additionally attributes the time to dev's COMMUNICATION
  /// budget for `phase` (collective busy time). CommOf/CommMax expose the
  /// totals so measured shuffle cost is separable from compute — the
  /// quantity the cost model's T_shuffle / graph-shuffle terms predict.
  void AdvanceComm(DeviceId dev, double dt, Phase phase, const char* label,
                   std::initializer_list<obs::TraceArg> args = {}) {
    AdvanceInternal(dev, dt, phase, label, args, /*comm=*/true);
  }

  /// Synchronizes all devices to the maximum clock (a blocking collective's
  /// exit point). The wait time each device spends is attributed to `phase`
  /// and to its communication budget (waiting inside a collective IS
  /// communication time), and traced as a "wait" slice.
  void BarrierAll(Phase phase);

  /// Max clock over all devices (the simulated wall time so far).
  double MaxNow() const;

  /// Resets clocks plus phase and communication accounting. Deliberately
  /// PRESERVES traffic counters and memory accounting: traffic byte totals
  /// are cumulative per-class transfer volumes (reset only via
  /// ResetTraffic), and memory high-water marks must survive epoch
  /// boundaries for OOM detection (reset only via ResetMemory).
  void ResetClocks();

  /// Seconds attributed to `phase`, summed over devices / max over devices.
  double PhaseTotal(Phase phase) const;
  double PhaseMax(Phase phase) const;
  /// Per-device attributed time.
  double PhaseOf(DeviceId dev, Phase phase) const;

  /// Per-device / max-over-devices time spent in collectives (busy + barrier
  /// wait) attributed to `phase`. Always <= the matching phase time.
  double CommOf(DeviceId dev, Phase phase) const;
  double CommMax(Phase phase) const;

  /// Invariant: each device's per-phase times sum to its clock (every clock
  /// mutation funnels through Advance/BarrierAll, which update both).
  /// Checked after every advance in debug builds; callable from tests.
  /// The single-device overload is what the per-advance debug check uses —
  /// concurrent phases (the serving engine runs devices on different
  /// threads) must not read other devices' in-flight state.
  void DebugCheckClockInvariant() const;
  void DebugCheckClockInvariant(DeviceId dev) const;

  // --- pipelined micro-batch execution ---------------------------------
  //
  // Each logical GPU owns TWO virtual timelines: the compute stream (the
  // device clock above) and a communication stream. In serial mode
  // (depth 1) the comm stream is unused and every advance lands on the
  // device clock exactly as before. In pipelined mode the engine wraps one
  // training step in Begin/EndPipelinedStep(depth): advances issued inside
  // the scope are CAPTURED to the step tape instead of moving clocks, then
  // the scope exit replays them as `depth` micro-batches. Each captured op
  // is split into `depth` equal chunks; chunks whose op was a collective
  // (AdvanceComm) or a feature gather (Phase::kLoad) are scheduled on the
  // comm stream, everything else on the compute stream. Micro-batch m's
  // chunks chain in program order; across micro-batches the two streams
  // overlap freely, subject to (a) stream serialization (one op at a time
  // per stream), (b) double buffering (micro-batch m's communication waits
  // for micro-batch m-2's compute to release its buffer), and (c) barriers,
  // which join all devices' chains of the SAME micro-batch — the explicit
  // stream-sync points.
  //
  // Accounting: the device clock remains the COMPUTE timeline. Compute
  // chunks charge their phase as usual; comm chunks charge the separate
  // comm-stream accounting (CommStreamOf/CommStreamMax) and a "gpuN.comm"
  // trace lane. Gaps where the compute stream sits waiting on communication
  // are charged as phase + comm time and traced as "pipeline.stall" — so
  // the clock invariant holds unchanged and CommOf/CommMax report the
  // EXPOSED (non-overlapped) communication.
  //
  // Modeling deviation (documented, deliberate): durations and fault
  // evaluation use the clocks frozen at the step start, because the real
  // arithmetic still executes serially — pipelining is purely a timing
  // model. Model parameters are therefore bit-identical at every depth.

  /// Starts capturing one pipelined step. depth >= 2; scopes cannot nest.
  void BeginPipelinedStep(int depth);
  /// Replays the captured ops as `depth` micro-batches, advancing clocks,
  /// phase/comm accounting and comm-stream time. Safe to call with an
  /// exception in flight (the engine's fault path): partial tapes replay so
  /// partially-charged faults still land on the clocks.
  void EndPipelinedStep();
  bool PipelineCapturing() const { return pipeline_depth_ > 1; }
  /// Depth of the step being captured; 1 outside a pipelined scope.
  int PipelineDepth() const { return pipeline_depth_; }

  /// RAII wrapper for Begin/EndPipelinedStep; no-op at depth <= 1, and
  /// replays on destruction even when the step throws (collective faults).
  class PipelinedStepScope {
   public:
    PipelinedStepScope(SimContext& sim, int depth)
        : sim_(depth > 1 ? &sim : nullptr) {
      if (sim_ != nullptr) sim_->BeginPipelinedStep(depth);
    }
    ~PipelinedStepScope() {
      if (sim_ != nullptr) sim_->EndPipelinedStep();
    }
    PipelinedStepScope(const PipelinedStepScope&) = delete;
    PipelinedStepScope& operator=(const PipelinedStepScope&) = delete;

   private:
    SimContext* sim_;
  };

  /// Comm-stream busy seconds (overlapped communication) per device / max
  /// over devices, attributed to `phase`. Zero unless pipelined steps ran.
  double CommStreamOf(DeviceId dev, Phase phase) const;
  double CommStreamMax(Phase phase) const;

  // --- step recording (sampled execution) -------------------------------
  //
  // While recording, every clock mutation and traffic count appends a
  // structured op to the tape IN ADDITION to executing normally — the
  // recorded step itself is bit-identical to an unrecorded one. Compound
  // charges (collectives, ChargeCompute) record ONE structured op and mark
  // the flat advances their implementation issues as inner, so replay
  // re-runs the charging math instead of replaying stale numbers.

  /// Starts recording; any partial previous tape is discarded. Not inside a
  /// pipelined scope.
  void BeginStepRecord();
  /// Discards the partial tape (fault path: the replayable unit is a
  /// completed step, a faulted attempt is re-executed for real on retry).
  /// Not inside a pipelined scope: the scope still owns its captured ops.
  void AbortStepRecord();
  /// Stops recording and returns the completed tape (outer ops only).
  StepTape EndStepRecord();
  bool RecordingStep() const {
    return recording_ && record_suppress_ == 0;
  }
  /// Appends a structured collective op (called by the Communicator, which
  /// then executes the real charge inside a RecordSuppressScope).
  void RecordAllToAll(const AllToAllTraffic& traffic, Phase phase);
  void RecordRing(std::int64_t total_bytes, std::int64_t wire_bytes,
                  double factor, Phase phase, const char* label);
  /// Replays one flat advance from a tape (empty annotations; accounting
  /// identical to the recorded advance).
  void ReplayAdvance(DeviceId dev, double dt, Phase phase, const char* label,
                     bool comm) {
    AdvanceInternal(dev, dt, phase, label, {}, comm);
  }

  /// Marks a compound charge: flat advances issued inside it are inner ops
  /// (captured for the pipelined scheduler only; the compound op is what
  /// the recorded step keeps).
  class RecordSuppressScope {
   public:
    explicit RecordSuppressScope(SimContext& sim) : sim_(sim) {
      ++sim_.record_suppress_;
    }
    ~RecordSuppressScope() { --sim_.record_suppress_; }
    RecordSuppressScope(const RecordSuppressScope&) = delete;
    RecordSuppressScope& operator=(const RecordSuppressScope&) = delete;

   private:
    SimContext& sim_;
  };

  /// Trace pid of this context's simulated track (one lane per device plus
  /// one marker lane, see ObsStepLane), registered with the global tracer on
  /// first use (const: lazy registration is observability, not simulation
  /// state).
  std::int32_t ObsPid() const;

  /// Lane on this context's track for dev's COMM stream ("gpuN.comm").
  /// Only pipelined replay emits here; the lane is idle in serial runs.
  std::int32_t ObsCommLane(DeviceId dev) const {
    return num_devices() + static_cast<std::int32_t>(Check(dev));
  }

  /// Lane on this context's track reserved for engine-level markers (step /
  /// epoch spans with strategy annotations). Device slices never land here,
  /// so markers can overlap device activity without corrupting lanes — and
  /// the trace analyzer uses them to delimit steps and label strategies.
  std::int32_t ObsStepLane() const { return 2 * num_devices(); }

  /// Display label of this context's trace track ("2m x 4gpu").
  std::string ObsTrackLabel() const;

  // --- compute cost helpers -------------------------------------------

  /// Time for `flops` of dense/sparse math on dev (one kernel launch).
  /// Includes any active straggler slowdown from the installed fault plan.
  double ComputeSeconds(DeviceId dev, double flops) const;
  /// Advance dev by a compute of `flops`, attributed to kTrain.
  void ChargeCompute(DeviceId dev, double flops);

  // --- fault injection --------------------------------------------------
  //
  // The plan is consumed deterministically: straggler factors apply inside
  // ComputeSeconds, link degradation inside EffectiveLink*/DegradedLink
  // (evaluated at the consuming devices' CURRENT virtual clocks), and
  // collective faults inside the Communicator via CollectiveFailureFraction.
  // With no plan installed — or an Empty() one — every path returns the
  // exact same numbers as before this subsystem existed (asserted by the
  // zero-fault-overhead tests).

  /// Installs (replaces) the fault plan. Collective faults are re-armed.
  void InstallFaults(FaultPlan plan);
  const FaultPlan& faults() const { return faults_; }
  bool HasFaults() const { return !faults_.Empty(); }

  /// Cluster link for a device pair, degraded by any active link
  /// fault at the participants' current simulated time.
  LinkSpec EffectiveLinkBetween(DeviceId a, DeviceId b) const;
  /// Applies active link faults of `cls` to an externally chosen base link
  /// at time `at_s` (FeatureStore tiers pick their own base links).
  LinkSpec DegradedLink(LinkSpec base, TrafficClass cls, double at_s) const;

  /// Called by the Communicator with each collective's total wire bytes
  /// BEFORE charging time. If an armed CollectiveFault's threshold falls
  /// within this call's byte range, the fault is consumed and the completed
  /// fraction of the call (in [0,1)) is returned; the caller must charge
  /// that fraction of the time, PoisonBarrier(), and throw CollectiveError.
  /// Returns nullopt (and accumulates the bytes) when no fault fires.
  std::optional<double> CollectiveFailureFraction(std::int64_t call_bytes);
  /// Cumulative wire bytes of completed collectives (monotone; drives the
  /// CollectiveFault thresholds).
  std::int64_t CollectiveBytesDone() const { return collective_bytes_; }

  /// Total fault activations observed so far (each straggler/link fault
  /// counts once on first observation; each collective fault on firing).
  std::int64_t FaultsObserved() const {
    return faults_observed_.load(std::memory_order_relaxed);
  }

  // --- barrier poisoning ------------------------------------------------
  //
  // When a participant fails inside a collective, its peers must not be
  // left silently blocked (the deadlock a real NCCL abort causes). The
  // failing path poisons the barrier; every subsequent BarrierAll throws
  // BarrierPoisonedError until recovery clears the poison.

  void PoisonBarrier(const std::string& reason);
  bool BarrierPoisoned() const { return poisoned_; }
  const std::string& PoisonReason() const { return poison_reason_; }
  void ClearBarrierPoison() { poisoned_ = false; poison_reason_.clear(); }

  // --- traffic ----------------------------------------------------------

  TrafficClass ClassifyDeviceLink(DeviceId a, DeviceId b) const;
  TrafficClass ClassifyCpuLink(DeviceId dev, MachineId m) const;

  /// Adds to the cumulative per-class byte totals (also mirrored into the
  /// global obs metrics registry and, when tracing, a counter track).
  /// `bytes` is the LOGICAL fp32 volume; `wire_bytes` is what actually
  /// crossed the link after any codec (== bytes when uncompressed). Wire
  /// bytes are what transfer time and fault thresholds charge; the
  /// logical/wire pair is what reports derive compression ratios from.
  void CountTraffic(TrafficClass c, std::int64_t bytes,
                    std::int64_t wire_bytes);
  void CountTraffic(TrafficClass c, std::int64_t bytes) {
    CountTraffic(c, bytes, bytes);
  }
  std::int64_t TrafficBytes(TrafficClass c) const {
    return traffic_bytes_[static_cast<std::size_t>(c)].load(
        std::memory_order_relaxed);
  }
  std::int64_t TrafficWireBytes(TrafficClass c) const {
    return traffic_wire_bytes_[static_cast<std::size_t>(c)].load(
        std::memory_order_relaxed);
  }
  void ResetTraffic() {
    for (auto& b : traffic_bytes_) b.store(0, std::memory_order_relaxed);
    for (auto& b : traffic_wire_bytes_) b.store(0, std::memory_order_relaxed);
  }

  // --- memory -----------------------------------------------------------

  /// Registers a persistent allocation (cache, parameters) on dev.
  void AllocPersistent(DeviceId dev, std::int64_t bytes);
  /// Tracks transient peak usage: call with the live transient bytes.
  void NoteTransient(DeviceId dev, std::int64_t bytes);
  std::int64_t PeakMemory(DeviceId dev) const;
  /// True if any device's peak exceeded its capacity.
  bool AnyOom() const;
  std::vector<DeviceId> OomDevices() const;
  void ResetMemory();

 private:
  std::size_t Check(DeviceId dev) const {
    APT_CHECK(dev >= 0 && dev < num_devices()) << "device " << dev;
    return static_cast<std::size_t>(dev);
  }

  void AdvanceInternal(DeviceId dev, double dt, Phase phase, const char* label,
                       std::initializer_list<obs::TraceArg> args, bool comm);

  /// The one push path onto the tape; marks the op inner inside a compound
  /// charge.
  StepTapeOp& PushOp(StepTapeOp::Kind kind);

  /// Schedules the advances and barriers of the scope opened at
  /// tape_.ops[begin] as `depth` micro-batches over the compute + comm
  /// streams and commits the resulting times (see sim_pipeline.cpp).
  void ReplayPipeline(std::size_t begin, int depth);

  /// One-shot fault.* metric + trace emission when a straggler/link fault is
  /// first seen active (const: observation does not change simulation state).
  void NoteStragglerObserved(std::size_t fault_index, DeviceId dev,
                             double at_s) const;
  void NoteLinkObserved(std::size_t fault_index, double at_s) const;

  ClusterSpec cluster_;
  bool recording_ = false;    ///< step recording active
  int record_suppress_ = 0;   ///< >0 inside a compound charge
  /// Recorded step and/or the open pipelined scope's captured ops.
  StepTape tape_;
  std::vector<double> clocks_;
  std::vector<std::array<double, kNumPhases>> phase_time_;
  std::vector<std::array<double, kNumPhases>> comm_time_;
  /// Comm-STREAM busy time (overlapped communication, pipelined replay
  /// only); deliberately outside the clock invariant — the device clock
  /// tracks the compute timeline.
  std::vector<std::array<double, kNumPhases>> comm_stream_time_;
  int pipeline_depth_ = 1;  ///< >1 while capturing a pipelined step
  std::size_t pipeline_begin_ = 0;  ///< tape index of the scope's kBeginPipelined
  // Traffic totals and fault-observation flags are atomic: concurrent
  // serving workers gather features (CountTraffic) and evaluate link /
  // straggler faults (NoteObserved) from different threads. Everything else
  // is per-device state touched only by that device's thread, or
  // bookkeeping confined to single-threaded sections.
  std::array<std::atomic<std::int64_t>,
             static_cast<std::size_t>(TrafficClass::kNumClasses)>
      traffic_bytes_{};
  std::array<std::atomic<std::int64_t>,
             static_cast<std::size_t>(TrafficClass::kNumClasses)>
      traffic_wire_bytes_{};
  std::vector<std::int64_t> persistent_bytes_;
  std::vector<std::int64_t> peak_bytes_;
  mutable std::atomic<std::int32_t> obs_pid_{-1};  ///< lazy trace track

  FaultPlan faults_;
  std::size_t next_collective_fault_ = 0;  ///< index into faults_.collectives
  std::int64_t collective_bytes_ = 0;
  bool poisoned_ = false;
  std::string poison_reason_;
  mutable std::atomic<std::int64_t> faults_observed_{0};
  mutable std::vector<std::atomic<std::uint8_t>> straggler_seen_;  ///< flags
  mutable std::vector<std::atomic<std::uint8_t>> link_seen_;
};

}  // namespace apt
