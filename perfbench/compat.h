// The benchmark's only contact with the scale-mode switch and the
// fast-forward step tape. Both are slated to change shape (the switch is to
// go away and leave `scale_sample_period` alone), so every use sits here,
// behind __has_include, and the rest of the benchmark compiles either way.
#pragma once

#include <cstdint>
#include <memory>

#include "comm/collectives.h"
#include "engine/engine_types.h"
#include "sim/sim_context.h"

#if __has_include("sim/scale.h")
#define PERFBENCH_SCALE_SWITCH 1
#else
#define PERFBENCH_SCALE_SWITCH 0
#endif

namespace perfbench {

/// Sampled execution: one probe step in `period`, the rest fast-forwarded.
inline void EnableSampledExecution(apt::EngineOptions& opts, std::int64_t period) {
#if PERFBENCH_SCALE_SWITCH
  opts.sim.scale_mode = apt::ScaleMode::kScale;
#endif
  opts.scale_sample_period = period;
}

inline bool SampledExecution(const apt::EngineOptions& opts) {
#if PERFBENCH_SCALE_SWITCH
  return opts.sim.scale_mode == apt::ScaleMode::kScale;
#else
  return opts.scale_sample_period > 1;
#endif
}

inline std::unique_ptr<apt::SimContext> MakeSim(const apt::ClusterSpec& cluster,
                                                const apt::EngineOptions& opts) {
#if PERFBENCH_SCALE_SWITCH
  return std::make_unique<apt::SimContext>(cluster, opts.sim);
#else
  (void)opts;
  return std::make_unique<apt::SimContext>(cluster);
#endif
}

/// Whether the benchmark can replay a probe's tape itself. Without the
/// switch the traced run times whole epochs of the library's own trainer
/// for sampled execution instead of its steps.
inline constexpr bool kMirrorFastForward = PERFBENCH_SCALE_SWITCH == 1;

#if PERFBENCH_SCALE_SWITCH
using StepTape = apt::StepTape;
inline void BeginProbe(apt::SimContext& sim) { sim.BeginStepRecord(); }
inline StepTape EndProbe(apt::SimContext& sim) { return sim.EndStepRecord(); }
inline void FastForward(apt::Communicator& comm, const StepTape& tape) {
  comm.FastForwardStep(tape);
}
inline bool Empty(const StepTape& tape) { return tape.empty(); }
#else
struct StepTape {};
inline void BeginProbe(apt::SimContext&) {}
inline StepTape EndProbe(apt::SimContext&) { return {}; }
inline void FastForward(apt::Communicator&, const StepTape&) {}
inline bool Empty(const StepTape&) { return true; }
#endif

}  // namespace perfbench
