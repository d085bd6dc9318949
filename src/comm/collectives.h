// Collective communication over simulated devices.
//
// The communicator plays NCCL's role as a clock: every simulated device
// lives in this process, so callers reduce, copy or read their peers'
// payloads themselves (which keeps downstream computation exact) and the
// communicator charges the collective that would have moved them, on each
// participant's virtual clock, via the cluster's link model. All
// collectives are group-wide and blocking: participants leave at the same
// simulated instant (SimContext::BarrierAll).
//
// Cost model per collective (documented per function):
//   * point-to-point batches (ChargeAllToAll): each device serializes its
//     egress and ingress on its own link; the collective completes at the
//     slowest.
//   * ring collectives (ChargeAllReduce, ChargeAllBroadcast): classic
//     2(C-1)/C and (C-1)/C volume terms over the bottleneck link of the
//     ring.
//
// Fault interaction: link costs are computed against the SimContext's
// EFFECTIVE links (degraded by any active LinkFault), and each charging path
// consults SimContext::CollectiveFailureFraction. When an armed
// CollectiveFault fires mid-call, every participant is charged the completed
// fraction of its busy time, the barrier is poisoned for all waiters, and the
// call throws CollectiveError — never a silent hang or time inflation.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "core/types.h"
#include "sim/sim_context.h"
#include "tensor/codec.h"
#include "tensor/tensor.h"

namespace apt {

class Communicator {
 public:
  /// The communicator charges time to `ctx`'s clocks; `phase` attribution is
  /// chosen per call (subgraph shuffles -> kSample, embedding shuffles ->
  /// kTrain).
  explicit Communicator(SimContext& ctx) : ctx_(&ctx) {}

  std::int32_t num_devices() const { return ctx_->num_devices(); }

  // ------------------------------------------------------------------
  // Wire codec. Float-tensor payloads (ring payloads and all-to-all row
  // lanes alike, priced by shape through WireBytes) charge CODEC bytes on
  // the wire, one codec on every link; id/object/double payloads carry
  // structural or exact data and always travel uncompressed. The
  // communicator never changes VALUES — lossy rounding happens exactly once
  // at the producer (FeatureStore / model boundary hooks), which is what
  // keeps quantized strategies bit-comparable (DESIGN.md invariant 8).
  // Transfer time, fault thresholds, and the wire traffic counters all see
  // codec bytes; logical fp32 bytes stay visible beside them for ratio
  // reporting.
  // ------------------------------------------------------------------
  void SetWireCodecAll(Codec codec) { wire_codec_ = codec; }
  Codec wire_codec() const { return wire_codec_; }
  /// Wire bytes of a rows x cols fp32 payload under the wire codec
  /// (kDeltaBitmask charges its dense worst case: the shape says nothing of
  /// the content).
  std::int64_t WireBytes(std::int64_t rows, std::int64_t cols) const {
    return CodecWireBytes(wire_codec_, rows, cols);
  }
  /// Codec for gradient-allreduce payloads (RingWireBytes with
  /// gradient_sync = true). kDeltaBitmask is lossless and charges
  /// content-dependent sparse bytes of the reduced tensor.
  void set_grad_codec(Codec codec) { grad_codec_ = codec; }
  Codec grad_codec() const { return grad_codec_; }

  // ------------------------------------------------------------------
  // The communicator's two ring collectives, charges priced by size. Every
  // device lives in this process, so callers reduce or read their peers'
  // payloads in place (AllReduceGradients sums the replicas in device order;
  // NFP computes each origin's layer 0 whole and charges the partial
  // allreduce and gradient broadcast its column split would run) and then
  // charge the collective that would have moved them. `bytes` is the
  // logical payload: one device's contribution for an allreduce, the sum
  // over devices for a broadcast; `wire_bytes` is the same under the codec
  // (RingWireBytes). A ring moves factor * (C-1)/C of it per device (factor
  // 2 for AllReduce, 1 for AllBroadcast); each device pays codec
  // encode/decode passes when wire and logical bytes differ. Traced as one
  // "allreduce" / "allbroadcast" slice per participant and attributed to
  // SimContext comm time; link faults, collective-fault thresholds and the
  // per-class wire counters all see wire bytes.
  // ------------------------------------------------------------------
  void ChargeAllReduce(std::int64_t bytes, std::int64_t wire_bytes, Phase phase) {
    ChargeRing(bytes, wire_bytes, /*factor=*/2.0, phase, "allreduce");
  }
  void ChargeAllBroadcast(std::int64_t bytes, std::int64_t wire_bytes, Phase phase) {
    ChargeRing(bytes, wire_bytes, /*factor=*/1.0, phase, "allbroadcast");
  }
  /// Wire bytes of one device's fp32 `payload` on a ring. Gradient sync uses
  /// the grad codec on the payload's content, so kDeltaBitmask counts its
  /// nonzeros; everything else is WireBytes of the payload's shape.
  std::int64_t RingWireBytes(const Tensor& payload, bool gradient_sync = false) const {
    return gradient_sync ? CodecWireBytes(grad_codec_, payload)
                         : WireBytes(payload.rows(), payload.cols());
  }

  /// Bottleneck link of a ring over all devices (the slowest hop), after
  /// applying any active link faults at the participants' current clocks.
  LinkSpec RingBottleneck() const;

  // ------------------------------------------------------------------
  // The communicator's one all-to-all: a charge from sparse per-sender
  // lanes. Callers move their payloads themselves (the SNP and DNP
  // executors' flat pair routing, engine/pair_routing.h) and describe the
  // messages as lanes. Each device serializes its egress and ingress on its
  // own link, pays codec encode/decode passes when a lane's wire bytes
  // differ from its logical bytes, and the collective completes at the
  // slowest participant. Traced as one "alltoall" slice per participant and
  // attributed to SimContext comm time; fault thresholds, link degradation
  // and the wire counters all see wire bytes. Throws apt::Error, before
  // recording or charging anything, when a peer is outside [0, C) or peers
  // do not strictly ascend within a sender's row (the order every device
  // sums its lanes in).
  // ------------------------------------------------------------------
  void ChargeAllToAll(const AllToAllTraffic& traffic, Phase phase);
  // ------------------------------------------------------------------
  // Sampled-execution fast-forward: replays a recorded step
  // tape through the virtual clocks. Flat advances and barriers replay
  // literally; collectives and compute re-run their real charging code, so
  // link faults, stragglers, and wire-byte collective-failure thresholds
  // fire exactly as they would in a real step (a firing fault poisons the
  // barrier and throws CollectiveError, same as live execution).
  // ------------------------------------------------------------------
  void FastForwardStep(const StepTape& tape);

  SimContext& ctx() { return *ctx_; }

 private:
  /// The real all-to-all charge. ChargeAllToAll is a thin wrapper that
  /// validates the lanes and, while a step records, appends ONE structured
  /// kAllToAll op (and marks the flat advances below inner) so fast-forward
  /// re-runs this code on the already-validated lanes.
  void ChargeAllToAllImpl(const AllToAllTraffic& traffic, Phase phase);
  /// Ring collective: time = latency_terms + factor * (C-1)/C * wire / bw.
  /// `label` names the trace slices ("allreduce" / "allbroadcast").
  void ChargeRing(std::int64_t total_bytes, std::int64_t wire_total_bytes,
                  double factor, Phase phase, const char* label);
  void ChargeRingImpl(std::int64_t total_bytes, std::int64_t wire_total_bytes,
                      double factor, Phase phase, const char* label);
  /// Consults the fault plan with this call's wire bytes. On a hit: charges
  /// each device the completed fraction of busy[d] (as comm time, traced
  /// "fault.collective"), records the failing call in the flight recorder
  /// (with its bytes and `traffic_class`), poisons the barrier, and throws
  /// CollectiveError.
  void MaybeFailCollective(std::int64_t wire_bytes, const std::vector<double>& busy,
                           Phase phase, const char* label,
                           const char* traffic_class);

  SimContext* ctx_;
  Codec wire_codec_ = Codec::kIdentity;
  Codec grad_codec_ = Codec::kIdentity;
};

}  // namespace apt
