// In-memory host spans for the benchmark's traced run.
//
// The benchmark records a span around every call it makes into a library
// layer (name, start, end, parent). Spans stay in per-thread buffers while
// the run measures and are analysed and written out when it ends. With
// tracing off a Scope costs one branch, so untraced runs are not perturbed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using SpanId = std::int64_t;
inline constexpr SpanId kNoSpan = -1;

struct Span {
  const char* name = nullptr;  ///< string literal
  double start = 0.0;          ///< host seconds (steady clock)
  double end = 0.0;
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  std::int32_t tid = 0;
};

void SetTracing(bool on);
bool Tracing();

/// Innermost open span on the calling thread (kNoSpan if none).
SpanId CurrentSpan();

/// RAII span. The parent defaults to the calling thread's innermost open
/// span; work handed to other threads passes its parent explicitly.
class Scope {
 public:
  explicit Scope(const char* name) : Scope(name, CurrentSpan()) {}
  Scope(const char* name, SpanId parent);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  SpanId id() const { return id_; }

 private:
  SpanId id_ = kNoSpan;
  std::size_t index_ = 0;
};

/// Per-name times over every closed span.
struct LayerTime {
  double total_s = 0.0;              ///< inclusive, all calls
  std::vector<double> per_call;      ///< inclusive seconds of each call
  std::vector<double> self_per_call; ///< minus the union of the call's children
};

struct SpanReport {
  std::map<std::string, LayerTime> layers;
  /// Share of the time inside spans named `root` that no layer span below
  /// them covers, on any thread.
  double unattributed_frac = 0.0;
};

/// Analyses every span recorded so far; `root` names the per-step span.
SpanReport AnalyzeSpans(const std::string& root);

/// Writes all spans as Chrome trace JSON (viewable in Perfetto).
bool WriteSpans(const std::string& path);

}  // namespace perfbench
