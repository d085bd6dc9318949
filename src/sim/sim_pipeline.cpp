// Pipelined micro-batch replay: the second virtual timeline per logical GPU.
//
// SimContext captures one training step's advances/barriers to the step tape
// (see the push path in sim_context.cpp), then this file schedules them as
// `depth` micro-batches over two streams per device — compute (the device
// clock) and communication — and commits the resulting times. A recorded
// step's compound ops (collectives, compute, traffic) share the tape; the
// scheduler skips them and reads the flat advances they issued instead.
//
// Scheduling model:
//  * Every captured op is split into `depth` equal chunks (dt / depth), one
//    per micro-batch. The tape order is the per-micro-batch program order.
//  * Stream assignment: collective charges (AdvanceComm) and feature-load
//    charges (Phase::kLoad — the gather path) run on the comm stream;
//    everything else runs on the compute stream.
//  * Within micro-batch m, chunks chain in program order on each device
//    (the data dependency Permute -> Shuffle -> Execute -> Reshuffle).
//  * Each stream runs one chunk at a time (stream serialization), so
//    micro-batch m+1's communication overlaps micro-batch m's compute.
//  * Double buffering: micro-batch m's communication additionally waits for
//    micro-batch m-2's compute on the same device to release its buffer.
//  * A captured barrier is a stream-sync point: all devices' micro-batch-m
//    chains join at their max, and each device's comm stream is busy until
//    that join (a collective only completes when every participant has).
//
// Commit: compute chunks charge phase time on the device clock; comm chunks
// charge the separate comm-stream accounting and the "gpuN.comm" trace lane
// (annotated {"stream":"comm"} so file-loaded analyses can classify them).
// Gaps in the compute timeline are charged as phase + comm time and traced
// as "pipeline.stall": the EXPOSED communication the overlap failed to
// hide. Chunks plus stalls tile [step start, device end] exactly, so the
// clock invariant (phase sums == clock) survives unchanged.

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "sim/sim_context.h"

namespace apt {

void SimContext::BeginPipelinedStep(int depth) {
  APT_CHECK_GT(depth, 1) << "pipelined scope needs depth >= 2";
  APT_CHECK_EQ(pipeline_depth_, 1) << "pipelined steps cannot nest";
  // The scope's first op, recorded or not: fast-forward re-opens the scope
  // from it so the replayed ops are captured and scheduled exactly like the
  // real step. The replay commits in ReplayPipeline write clock arrays
  // directly — never through Advance/BarrierAll — so only the scope
  // boundaries need recording.
  pipeline_begin_ = tape_.ops.size();
  PushOp(StepTapeOp::Kind::kBeginPipelined).depth = depth;
  pipeline_depth_ = depth;
}

void SimContext::EndPipelinedStep() {
  if (pipeline_depth_ <= 1) return;
  const int depth = pipeline_depth_;
  pipeline_depth_ = 1;  // replay below charges clocks live
  if (tape_.ops.size() > pipeline_begin_ + 1) ReplayPipeline(pipeline_begin_, depth);
  // Only a recorded step keeps the scope, minus its inner ops.
  auto scope = tape_.ops.begin() + static_cast<std::ptrdiff_t>(pipeline_begin_);
  if (RecordingStep()) {
    tape_.ops.erase(std::remove_if(scope, tape_.ops.end(),
                                   [](const StepTapeOp& op) { return op.inner; }),
                    tape_.ops.end());
    PushOp(StepTapeOp::Kind::kEndPipelined);
  } else {
    tape_.ops.erase(scope, tape_.ops.end());
  }
}

void SimContext::ReplayPipeline(std::size_t begin, int depth) {
  struct Chunk {
    double t0 = 0.0;
    double t1 = 0.0;
    const StepTapeOp* op = nullptr;
    int mb = 0;
  };

  const std::size_t n = clocks_.size();
  const double inv_depth = 1.0 / static_cast<double>(depth);
  const std::vector<double> start = clocks_;  // frozen step-start clocks
  std::vector<double> comp_free = clocks_;    // compute-stream availability
  std::vector<double> comm_free = clocks_;    // comm-stream availability
  std::vector<double> chain(n);               // micro-batch program chain
  // Per-device compute completion per micro-batch: micro-batch m's comm may
  // only start once m-2's compute released its half of the double buffer.
  std::vector<std::vector<double>> compute_done(static_cast<std::size_t>(depth),
                                                start);
  std::vector<std::vector<Chunk>> comp_chunks(n);
  std::vector<std::vector<Chunk>> comm_chunks(n);

  const auto scope = std::span(tape_.ops).subspan(begin + 1);
  for (int m = 0; m < depth; ++m) {
    chain = start;  // every micro-batch's inputs are ready at step start
    for (const StepTapeOp& op : scope) {
      if (op.kind == StepTapeOp::Kind::kBarrier) {
        // Barrier: all devices' micro-batch-m chains join; each comm stream
        // stays busy until the join (collective exit).
        double target = 0.0;
        for (std::size_t d = 0; d < n; ++d) target = std::max(target, chain[d]);
        for (std::size_t d = 0; d < n; ++d) {
          chain[d] = target;
          comm_free[d] = std::max(comm_free[d], target);
        }
        continue;
      }
      if (op.kind != StepTapeOp::Kind::kAdvance) continue;  // compound op
      const std::size_t d = Check(op.dev);
      const bool on_comm = op.comm || op.phase == Phase::kLoad;
      double t0 = std::max(chain[d], on_comm ? comm_free[d] : comp_free[d]);
      if (on_comm && m >= 2) {
        t0 = std::max(t0, compute_done[static_cast<std::size_t>(m - 2)][d]);
      }
      const double t1 = t0 + op.dt * inv_depth;
      chain[d] = t1;
      (on_comm ? comm_free : comp_free)[d] = t1;
      if (!on_comm) compute_done[static_cast<std::size_t>(m)][d] = t1;
      (on_comm ? comm_chunks : comp_chunks)[d].push_back(Chunk{t0, t1, &op, m});
    }
  }

  // Commit the schedule to clocks, accounting and (optionally) the trace.
  const bool tracing = obs::TracingEnabled();
  for (std::size_t di = 0; di < n; ++di) {
    const auto dev = static_cast<DeviceId>(di);
    double end = start[di];
    for (const Chunk& c : comp_chunks[di]) end = std::max(end, c.t1);
    for (const Chunk& c : comm_chunks[di]) end = std::max(end, c.t1);

    // Comm stream: busy time per phase + one slice per chunk on the comm
    // lane, tagged with its stream and micro-batch.
    for (const Chunk& c : comm_chunks[di]) {
      comm_stream_time_[di][static_cast<std::size_t>(c.op->phase)] += c.t1 - c.t0;
      if (tracing && c.t1 > c.t0) {
        std::array<obs::TraceArg, obs::kMaxTraceArgs> args{};
        int na = 0;
        args[static_cast<std::size_t>(na++)] = {"stream", 0.0, "comm"};
        args[static_cast<std::size_t>(na++)] = {"mb", static_cast<double>(c.mb),
                                                nullptr};
        for (int k = 0; k < c.op->num_args && na < obs::kMaxTraceArgs; ++k) {
          args[static_cast<std::size_t>(na++)] = c.op->args[static_cast<std::size_t>(k)];
        }
        obs::EmitSimSpan(ObsPid(), ObsCommLane(dev), c.t0, c.t1,
                         c.op->label != nullptr ? c.op->label : ToString(c.op->phase),
                         ToString(c.op->phase), args.data(), na);
      }
    }

    // Compute timeline: chunks plus stall gaps tile [start, end] exactly.
    // A stall is communication the pipeline failed to hide; it is charged
    // as phase + comm time, attributed to the comm chunk that released it
    // (the latest one ending inside the gap), falling back to the phase of
    // the op that was waiting.
    std::size_t blocker = 0;  // monotone cursor over comm_chunks[di]
    auto charge_gap = [&](double g0, double g1, Phase fallback) {
      if (!(g1 > g0)) return;
      Phase ph = fallback;
      const char* blocking_label = nullptr;
      while (blocker < comm_chunks[di].size() &&
             comm_chunks[di][blocker].t1 <= g1) {
        if (comm_chunks[di][blocker].t1 > g0) {
          ph = comm_chunks[di][blocker].op->phase;
          blocking_label = comm_chunks[di][blocker].op->label;
        }
        ++blocker;
      }
      const std::size_t p = static_cast<std::size_t>(ph);
      phase_time_[di][p] += g1 - g0;
      comm_time_[di][p] += g1 - g0;
      if (tracing) {
        if (blocking_label != nullptr) {
          obs::EmitSimSpan(ObsPid(), dev, g0, g1, "pipeline.stall", ToString(ph),
                           {{"for", 0.0, blocking_label}});
        } else {
          obs::EmitSimSpan(ObsPid(), dev, g0, g1, "pipeline.stall", ToString(ph));
        }
      }
    };

    double cursor = start[di];
    for (const Chunk& c : comp_chunks[di]) {
      charge_gap(cursor, c.t0, c.op->phase);
      phase_time_[di][static_cast<std::size_t>(c.op->phase)] += c.t1 - c.t0;
      if (tracing && c.t1 > c.t0) {
        std::array<obs::TraceArg, obs::kMaxTraceArgs> args{};
        int na = 0;
        args[static_cast<std::size_t>(na++)] = {"mb", static_cast<double>(c.mb),
                                                nullptr};
        for (int k = 0; k < c.op->num_args && na < obs::kMaxTraceArgs; ++k) {
          args[static_cast<std::size_t>(na++)] = c.op->args[static_cast<std::size_t>(k)];
        }
        obs::EmitSimSpan(ObsPid(), dev, c.t0, c.t1,
                         c.op->label != nullptr ? c.op->label : ToString(c.op->phase),
                         ToString(c.op->phase), args.data(), na);
      }
      cursor = c.t1;
    }
    Phase tail_phase = Phase::kTrain;
    if (!comm_chunks[di].empty()) {
      tail_phase = comm_chunks[di].back().op->phase;
    } else if (!comp_chunks[di].empty()) {
      tail_phase = comp_chunks[di].back().op->phase;
    }
    charge_gap(cursor, end, tail_phase);
    clocks_[di] = end;
  }
#ifndef NDEBUG
  DebugCheckClockInvariant();
#endif
}

}  // namespace apt
