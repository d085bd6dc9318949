#include "comm/collectives.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <tuple>

#include "obs/flight.h"
#include "obs/metrics.h"

namespace apt {

namespace {

struct CollectiveMetrics {
  obs::Counter& calls;
  obs::Counter& bytes;
  obs::Counter& wire_bytes;
};

CollectiveMetrics& AllToAllMetrics() {
  static CollectiveMetrics m{
      obs::Metrics::Global().counter("comm.alltoall.calls"),
      obs::Metrics::Global().counter("comm.alltoall.bytes"),
      obs::Metrics::Global().counter("comm.alltoall.wire_bytes")};
  return m;
}

CollectiveMetrics& RingMetrics(const char* label) {
  static CollectiveMetrics allreduce{
      obs::Metrics::Global().counter("comm.allreduce.calls"),
      obs::Metrics::Global().counter("comm.allreduce.bytes"),
      obs::Metrics::Global().counter("comm.allreduce.wire_bytes")};
  static CollectiveMetrics broadcast{
      obs::Metrics::Global().counter("comm.allbroadcast.calls"),
      obs::Metrics::Global().counter("comm.allbroadcast.bytes"),
      obs::Metrics::Global().counter("comm.allbroadcast.wire_bytes")};
  return std::strcmp(label, "allreduce") == 0 ? allreduce : broadcast;
}

}  // namespace

LinkSpec Communicator::RingBottleneck() const {
  LinkSpec bottleneck{};
  bool first = true;
  const std::int32_t c = num_devices();
  for (DeviceId d = 0; d < c; ++d) {
    const LinkSpec link = ctx_->EffectiveLinkBetween(d, (d + 1) % c);
    if (first || link.bandwidth_bytes_per_s < bottleneck.bandwidth_bytes_per_s) {
      bottleneck = link;
      first = false;
    }
  }
  return bottleneck;
}

void Communicator::MaybeFailCollective(std::int64_t wire_bytes,
                                       const std::vector<double>& busy, Phase phase,
                                       const char* label,
                                       const char* traffic_class) {
  const std::optional<double> fraction = ctx_->CollectiveFailureFraction(wire_bytes);
  if (!fraction.has_value()) return;
  // Under pipelined execution the step runs as PipelineDepth() micro-batch
  // collectives; the completed byte fraction pins down which one was in
  // flight when the fault hit — recorded for the post-mortem flight dump.
  const int depth = ctx_->PipelineDepth();
  const double microbatch =
      depth > 1 ? std::min<double>(static_cast<double>(depth - 1),
                                   std::floor(*fraction * static_cast<double>(depth)))
                : 0.0;
  obs::Flight().Record("collective.fail", label, ctx_->MaxNow(),
                       {{"bytes", static_cast<double>(wire_bytes), nullptr},
                        {"fraction", *fraction, nullptr},
                        {"class", 0.0, traffic_class},
                        {"microbatch", microbatch, nullptr}});
  // The call dies part-way through: every participant has burned the
  // completed fraction of its busy time, nothing was delivered.
  for (std::size_t d = 0; d < busy.size(); ++d) {
    ctx_->AdvanceComm(static_cast<DeviceId>(d), *fraction * busy[d], phase,
                      "fault.collective",
                      {{"fraction", *fraction, nullptr}, {"op", 0.0, label}});
  }
  std::ostringstream os;
  os << label << " failed after " << ctx_->CollectiveBytesDone()
     << " collective bytes (completed fraction " << *fraction << ")";
  ctx_->PoisonBarrier(os.str());
  throw CollectiveError(os.str());
}

void Communicator::ChargeAllToAll(const AllToAllTraffic& traffic, Phase phase) {
  // Validated here, once: the Impl indexes per-device arrays by peer, and
  // tape replay re-runs it on lanes that passed this check when recorded.
  const std::int32_t c = num_devices();
  APT_CHECK_EQ(traffic.indptr.size(), static_cast<std::size_t>(c) + 1);
  APT_CHECK_EQ(traffic.indptr.back(), static_cast<std::int64_t>(traffic.peer.size()));
  APT_CHECK(traffic.bytes.size() == traffic.peer.size() &&
            traffic.wire.size() == traffic.peer.size());
  for (std::size_t s = 0; s < static_cast<std::size_t>(c); ++s) {
    for (std::int64_t k = traffic.indptr[s]; k < traffic.indptr[s + 1]; ++k) {
      const DeviceId r = traffic.peer[static_cast<std::size_t>(k)];
      APT_CHECK(r >= 0 && r < c) << "all-to-all lane " << s << " -> " << r
                                 << " names a peer outside [0, " << c << ")";
      APT_CHECK(k == traffic.indptr[s] || traffic.peer[static_cast<std::size_t>(k) - 1] < r)
          << "all-to-all peers of sender " << s << " do not strictly ascend at " << r;
    }
  }
  if (ctx_->RecordingStep()) {
    // One structured op on the step tape; the flat advances the Impl issues
    // are inner ops, so fast-forward re-runs the charge (fault thresholds,
    // link degradation) instead of replaying stale numbers.
    ctx_->RecordAllToAll(traffic, phase);
    SimContext::RecordSuppressScope suppress(*ctx_);
    ChargeAllToAllImpl(traffic, phase);
    return;
  }
  ChargeAllToAllImpl(traffic, phase);
}

namespace {

/// Transfer seconds of each lane under installed link faults, evaluated at
/// the current (pre-collective) clocks. A link fault notes its first
/// observation once, stamped with the clock of the lane that saw it, so
/// lanes resolve in device-major order: device i takes its egress lane
/// (i, j) and then its ingress lane (j, i) for each peer j in turn, which
/// reaches lane (s, r) first at (min(s, r), max(s, r), s > r).
std::vector<double> FaultedLaneSeconds(const SimContext& ctx,
                                       const AllToAllTraffic& traffic) {
  struct Visit {
    DeviceId lo, hi;
    bool ingress;  ///< first reached as the lower device's ingress lane
    DeviceId from, to;
    std::size_t lane;
  };
  std::vector<Visit> visits;
  for (std::size_t s = 0; s + 1 < traffic.indptr.size(); ++s) {
    for (auto k = static_cast<std::size_t>(traffic.indptr[s]);
         k < static_cast<std::size_t>(traffic.indptr[s + 1]); ++k) {
      if (traffic.wire[k] <= 0) continue;
      const auto from = static_cast<DeviceId>(s);
      const DeviceId to = traffic.peer[k];
      visits.push_back({std::min(from, to), std::max(from, to), from > to, from, to, k});
    }
  }
  std::sort(visits.begin(), visits.end(), [](const Visit& a, const Visit& b) {
    return std::tie(a.lo, a.hi, a.ingress) < std::tie(b.lo, b.hi, b.ingress);
  });
  std::vector<double> seconds(traffic.peer.size(), 0.0);
  for (const Visit& v : visits) {
    seconds[v.lane] =
        ctx.EffectiveLinkBetween(v.from, v.to).TransferSeconds(traffic.wire[v.lane]);
  }
  return seconds;
}

}  // namespace

void Communicator::ChargeAllToAllImpl(const AllToAllTraffic& traffic, Phase phase) {
  const auto c = static_cast<std::size_t>(num_devices());
  const ClusterSpec& cluster = ctx_->cluster();
  // Cost every lane once at the PRE-collective clocks (link faults are
  // evaluated against the time the transfer starts), so a mid-call failure
  // can charge each participant the same completed fraction. A lane's
  // seconds land on its sender's egress and its receiver's ingress; the
  // sweep runs sender by sender with peers ascending, so every device sums
  // its egress and its ingress lanes in ascending peer order. Egress and
  // ingress serialize on the device's own adapters; it is busy for the
  // larger of the two. Time moves WIRE (post-codec) bytes.
  std::vector<MachineId> machine_of(c);
  for (std::size_t d = 0; d < c; ++d) {
    machine_of[d] = cluster.MachineOf(static_cast<DeviceId>(d));
  }
  std::vector<LinkSpec> intra(static_cast<std::size_t>(cluster.num_machines()));
  for (std::size_t m = 0; m < intra.size(); ++m) {
    const MachineSpec& spec = cluster.machines[m];
    intra[m] = spec.has_nvlink ? spec.nvlink : spec.pcie;
  }
  const bool faulted_links = !ctx_->faults().links.empty();
  const std::vector<double> faulted_seconds =
      faulted_links ? FaultedLaneSeconds(*ctx_, traffic) : std::vector<double>{};
  std::vector<double> egress(c, 0.0), ingress(c, 0.0);
  std::vector<std::int64_t> egress_bytes(c, 0), ingress_bytes(c, 0);
  std::vector<std::int64_t> wire_part(c, 0);
  // Codec compute: lanes whose wire representation differs from the logical
  // one pay one encode pass at the sender and one decode pass at the
  // receiver, each a memory-bound sweep over the LOGICAL bytes. The identity
  // codec keeps wire == bytes on every lane and charges nothing.
  std::vector<std::int64_t> xcode_bytes(c, 0);
  constexpr std::size_t kCls = static_cast<std::size_t>(TrafficClass::kNumClasses);
  std::array<std::int64_t, kCls> cls_bytes{}, cls_wire{};
  for (std::size_t s = 0; s < c; ++s) {
    const MachineId ms = machine_of[s];
    for (auto k = static_cast<std::size_t>(traffic.indptr[s]);
         k < static_cast<std::size_t>(traffic.indptr[s + 1]); ++k) {
      const auto r = static_cast<std::size_t>(traffic.peer[k]);
      const std::int64_t b = traffic.bytes[k];
      const std::int64_t w = traffic.wire[k];
      const bool cross = machine_of[r] != ms;
      if (b > 0) {
        const auto cls = static_cast<std::size_t>(cross ? TrafficClass::kCrossMachine
                                                        : TrafficClass::kPeerGpu);
        cls_bytes[cls] += b;
        cls_wire[cls] += w;
      }
      if (w <= 0) continue;
      const double t = faulted_links
                           ? faulted_seconds[k]
                           : (cross ? cluster.network : intra[static_cast<std::size_t>(ms)])
                                 .TransferSeconds(w);
      egress[s] += t;
      ingress[r] += t;
      egress_bytes[s] += b;
      ingress_bytes[r] += b;
      wire_part[s] += w;
      if (w != b) {
        xcode_bytes[s] += b;
        xcode_bytes[r] += b;
      }
    }
  }
  std::vector<double> busy(c, 0.0);
  std::int64_t total_bytes = 0, total_wire = 0;
  for (std::size_t i = 0; i < c; ++i) {
    busy[i] = std::max(egress[i], ingress[i]) +
              static_cast<double>(xcode_bytes[i]) /
                  cluster.device(static_cast<DeviceId>(i)).mem_bandwidth_bytes_per_s;
    total_bytes += egress_bytes[i];
    total_wire += wire_part[i];
  }
  // Flight/failure attribution uses the coarse link class of the collective
  // as a whole (point-to-point pairs span classes; cross-machine dominates
  // whenever the cluster has more than one machine). Fault thresholds see
  // wire bytes: "fail after N bytes" means bytes that actually crossed links.
  const char* a2a_class =
      ToString(cluster.num_machines() > 1 ? TrafficClass::kCrossMachine
                                          : TrafficClass::kPeerGpu);
  MaybeFailCollective(total_wire, busy, phase, "alltoall", a2a_class);
  for (std::size_t cls = 0; cls < kCls; ++cls) {
    if (cls_bytes[cls] > 0) {
      ctx_->CountTraffic(static_cast<TrafficClass>(cls), cls_bytes[cls], cls_wire[cls]);
    }
  }
  for (std::size_t i = 0; i < c; ++i) {
    ctx_->AdvanceComm(static_cast<DeviceId>(i), busy[i], phase, "alltoall",
                      {{"egress_bytes", static_cast<double>(egress_bytes[i]), nullptr},
                       {"ingress_bytes", static_cast<double>(ingress_bytes[i]), nullptr},
                       {"participants", static_cast<double>(c), nullptr}});
  }
  AllToAllMetrics().calls.Increment();
  AllToAllMetrics().bytes.Add(total_bytes);
  AllToAllMetrics().wire_bytes.Add(total_wire);
  obs::Flight().Record("collective", "alltoall", ctx_->MaxNow(),
                       {{"bytes", static_cast<double>(total_bytes), nullptr},
                        {"wire_bytes", static_cast<double>(total_wire), nullptr},
                        {"participants", static_cast<double>(c), nullptr},
                        {"class", 0.0, a2a_class}});
  ctx_->BarrierAll(phase);
}

void Communicator::ChargeRing(std::int64_t total_bytes,
                              std::int64_t wire_total_bytes, double factor,
                              Phase phase, const char* label) {
  if (ctx_->RecordingStep()) {
    ctx_->RecordRing(total_bytes, wire_total_bytes, factor, phase, label);
    SimContext::RecordSuppressScope suppress(*ctx_);
    ChargeRingImpl(total_bytes, wire_total_bytes, factor, phase, label);
    return;
  }
  ChargeRingImpl(total_bytes, wire_total_bytes, factor, phase, label);
}

void Communicator::ChargeRingImpl(std::int64_t total_bytes,
                                  std::int64_t wire_total_bytes, double factor,
                                  Phase phase, const char* label) {
  CollectiveMetrics& metrics = RingMetrics(label);
  metrics.calls.Increment();
  const std::int32_t c = num_devices();
  if (c <= 1 || wire_total_bytes <= 0) {
    ctx_->BarrierAll(phase);
    return;
  }
  const LinkSpec bottleneck = RingBottleneck();
  const double volume = factor * static_cast<double>(c - 1) / c *
                        static_cast<double>(total_bytes);
  const double wire_volume = factor * static_cast<double>(c - 1) / c *
                             static_cast<double>(wire_total_bytes);
  // Codec compute: one encode of the local contribution plus one decode of
  // the result, each a memory-bound pass over the logical payload (zero when
  // the codec left the representation alone, i.e. wire == logical).
  const double xcode =
      wire_total_bytes != total_bytes
          ? 2.0 * static_cast<double>(total_bytes) /
                ctx_->cluster().device(0).mem_bandwidth_bytes_per_s
          : 0.0;
  const double t = static_cast<double>(c - 1) * bottleneck.latency_s +
                   wire_volume / bottleneck.bandwidth_bytes_per_s + xcode;
  // Traffic accounting: each byte crosses C-1 hops in a ring; classify by the
  // bottleneck hop for reporting purposes.
  const bool cross = ctx_->cluster().num_machines() > 1;
  const char* cls =
      ToString(cross ? TrafficClass::kCrossMachine : TrafficClass::kPeerGpu);
  MaybeFailCollective(static_cast<std::int64_t>(wire_volume),
                      std::vector<double>(static_cast<std::size_t>(c), t), phase,
                      label, cls);
  // Every device is busy for the whole ring schedule.
  for (DeviceId d = 0; d < c; ++d) {
    ctx_->AdvanceComm(d, t, phase, label,
                      {{"bytes", static_cast<double>(total_bytes), nullptr},
                       {"participants", static_cast<double>(c), nullptr},
                       {"class", 0.0, cls}});
  }
  metrics.bytes.Add(static_cast<std::int64_t>(volume));
  metrics.wire_bytes.Add(static_cast<std::int64_t>(wire_volume));
  ctx_->CountTraffic(cross ? TrafficClass::kCrossMachine : TrafficClass::kPeerGpu,
                     static_cast<std::int64_t>(volume),
                     static_cast<std::int64_t>(wire_volume));
  obs::Flight().Record("collective", label, ctx_->MaxNow(),
                       {{"bytes", static_cast<double>(total_bytes), nullptr},
                        {"wire_bytes", static_cast<double>(wire_volume), nullptr},
                        {"participants", static_cast<double>(c), nullptr},
                        {"class", 0.0, cls}});
  ctx_->BarrierAll(phase);
}

// --- sampled-execution fast-forward -----------------------------------------

void Communicator::FastForwardStep(const StepTape& tape) {
  bool in_pipeline = false;
  try {
    for (const StepTapeOp& op : tape.ops) {
      switch (op.kind) {
        case StepTapeOp::Kind::kAdvance:
          ctx_->ReplayAdvance(op.dev, op.dt, op.phase, op.label, op.comm);
          break;
        case StepTapeOp::Kind::kBarrier:
          ctx_->BarrierAll(op.phase);
          break;
        case StepTapeOp::Kind::kCompute:
          ctx_->ChargeCompute(op.dev, op.flops);
          break;
        case StepTapeOp::Kind::kAllToAll:
          ChargeAllToAllImpl(op.a2a, op.phase);
          break;
        case StepTapeOp::Kind::kRing:
          ChargeRingImpl(op.bytes, op.wire_bytes, op.factor, op.phase, op.label);
          break;
        case StepTapeOp::Kind::kTraffic:
          ctx_->CountTraffic(op.cls, op.bytes, op.wire_bytes);
          break;
        case StepTapeOp::Kind::kBeginPipelined:
          ctx_->BeginPipelinedStep(op.depth);
          in_pipeline = true;
          break;
        case StepTapeOp::Kind::kEndPipelined:
          ctx_->EndPipelinedStep();
          in_pipeline = false;
          break;
      }
    }
  } catch (...) {
    // Same guarantee as PipelinedStepScope: a fault mid-replay still commits
    // the partially-captured micro-batch tape, so partial charges (the
    // completed fraction of a failed collective) land on the clocks.
    if (in_pipeline) ctx_->EndPipelinedStep();
    throw;
  }
}

}  // namespace apt
