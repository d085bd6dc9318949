#include "spans.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common.h"

namespace perfbench {

namespace {

std::atomic<bool> g_tracing{false};
std::atomic<SpanId> g_next_id{0};

struct ThreadBuffer {
  std::int32_t tid = 0;
  std::vector<Span> spans;
  std::vector<SpanId> open;  ///< stack of open span ids on this thread
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers;
};

Registry& Reg() {
  static Registry* reg = new Registry();  // leaked: outlives worker threads
  return *reg;
}

ThreadBuffer& Buffer() {
  thread_local ThreadBuffer* buf = [] {
    Registry& reg = Reg();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.buffers.push_back(std::make_unique<ThreadBuffer>());
    reg.buffers.back()->tid = static_cast<std::int32_t>(reg.buffers.size() - 1);
    return reg.buffers.back().get();
  }();
  return *buf;
}

std::vector<Span> AllSpans() {
  Registry& reg = Reg();
  std::lock_guard<std::mutex> lock(reg.mu);
  std::vector<Span> all;
  for (const auto& b : reg.buffers) all.insert(all.end(), b->spans.begin(), b->spans.end());
  return all;
}

/// Length of the union of `iv` clipped to [lo, hi].
double CoveredLength(std::vector<std::pair<double, double>> iv, double lo, double hi) {
  std::sort(iv.begin(), iv.end());
  double covered = 0.0, cur_lo = 0.0, cur_hi = 0.0;
  bool open = false;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return covered;
}

}  // namespace

void SetTracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }
bool Tracing() { return g_tracing.load(std::memory_order_relaxed); }

SpanId CurrentSpan() {
  if (!Tracing()) return kNoSpan;
  const ThreadBuffer& b = Buffer();
  return b.open.empty() ? kNoSpan : b.open.back();
}

Scope::Scope(const char* name, SpanId parent) {
  if (!Tracing()) return;
  ThreadBuffer& b = Buffer();
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  index_ = b.spans.size();
  b.spans.push_back({name, Now(), 0.0, id_, parent, b.tid});
  b.open.push_back(id_);
}

Scope::~Scope() {
  if (id_ == kNoSpan) return;
  ThreadBuffer& b = Buffer();
  b.spans[index_].end = Now();
  b.open.pop_back();
}

SpanReport AnalyzeSpans(const std::string& root) {
  const std::vector<Span> spans = AllSpans();
  std::unordered_map<SpanId, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto it = index.find(spans[i].parent);
    if (it != index.end()) children[it->second].push_back(i);
  }

  SpanReport report;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<double, double>> iv;
    for (const std::size_t c : children[i]) iv.emplace_back(spans[c].start, spans[c].end);
    const double dur = s.end - s.start;
    const double self = dur - CoveredLength(std::move(iv), s.start, s.end);
    LayerTime& t = report.layers[s.name];
    t.total_s += dur;
    t.per_call.push_back(dur);
    t.self_per_call.push_back(self);
  }

  // Unattributed: per root span, the part of its interval that none of its
  // descendants covers.
  double root_total = 0.0, uncovered = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (root != spans[i].name) continue;
    std::vector<std::pair<double, double>> covered;
    std::vector<std::size_t> stack(children[i]);
    while (!stack.empty()) {
      const std::size_t c = stack.back();
      stack.pop_back();
      covered.emplace_back(spans[c].start, spans[c].end);
      stack.insert(stack.end(), children[c].begin(), children[c].end());
    }
    const double dur = spans[i].end - spans[i].start;
    root_total += dur;
    uncovered += dur - CoveredLength(std::move(covered), spans[i].start, spans[i].end);
  }
  report.unattributed_frac = root_total > 0.0 ? uncovered / root_total : 0.0;
  return report;
}

bool WriteSpans(const std::string& path) {
  const std::vector<Span> spans = AllSpans();
  std::ofstream os(path);
  if (!os) return false;
  double t0 = spans.empty() ? 0.0 : spans.front().start;
  for (const Span& s : spans) t0 = std::min(t0, s.start);
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name
       << "\",\"ph\":\"X\",\"pid\":0,\"tid\":" << s.tid
       << ",\"ts\":" << (s.start - t0) * 1e6 << ",\"dur\":" << (s.end - s.start) * 1e6
       << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
