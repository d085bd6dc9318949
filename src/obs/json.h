// Minimal streaming JSON writer shared by the trace exporter, the metrics
// dump, and the bench harness (one escaping/formatting implementation
// instead of the ad-hoc string concatenation the benches used to carry).
//
// The writer is a thin comma-and-nesting bookkeeper over an ostream: callers
// are responsible for emitting a structurally sensible sequence (Key before
// a value inside an object, matched Begin/End). Numbers are emitted with
// round-trip precision; NaN/Inf become null (JSON has no literals for them).
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace apt::obs {

/// Version stamped into every JSON file apt::obs emits (traces, metrics
/// dumps, bench records, flight recordings) as a top-level/meta
/// "schema_version" member. Readers (the trace analyzer, aptperf) reject
/// files whose version is missing or newer than this, so the formats can
/// evolve without silently mis-parsing old tooling against new files.
inline constexpr std::int64_t kObsSchemaVersion = 1;

std::string JsonEscape(std::string_view s);

class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(&os) {}

  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  /// Emits the key of the next object member.
  void Key(std::string_view k);

  void Value(std::string_view v);
  void Value(const char* v) { Value(std::string_view(v)); }
  void Value(double v);
  void Value(std::int64_t v);
  void Value(std::int32_t v) { Value(static_cast<std::int64_t>(v)); }
  void Value(bool v);

  /// Emits `json` verbatim as the next value (caller guarantees it is a
  /// well-formed JSON fragment, e.g. a record serialized elsewhere).
  void RawValue(std::string_view json);

  /// Key + value in one call.
  template <typename T>
  void KV(std::string_view k, const T& v) {
    Key(k);
    Value(v);
  }

 private:
  void Separate();  ///< comma between siblings

  std::ostream* os_;
  /// One entry per open container: true until the first element is written.
  std::vector<bool> first_{true};
  bool pending_key_ = false;
};

// --- reader ----------------------------------------------------------------
//
// Recursive-descent parser for the files the writer above produces (and for
// anything structurally similar). Grown out of the mini parser the obs tests
// carried privately; promoted here so the trace analyzer and the aptperf CLI
// read real files through the exact same code path the tests exercise.

/// A parsed JSON document node. Cheap to navigate, not cheap to copy —
/// intended for one-shot analysis of trace/metrics/records files.
struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::map<std::string, JsonValue> obj;

  /// Object member lookup; nullptr when absent (or not an object).
  const JsonValue* Find(const std::string& key) const {
    const auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
  }
  /// Find + numeric coercion with a default (the analyzer's common read).
  double NumOr(const std::string& key, double fallback) const {
    const JsonValue* v = Find(key);
    return v != nullptr && v->kind == kNumber ? v->num : fallback;
  }
  const std::string* StrOrNull(const std::string& key) const {
    const JsonValue* v = Find(key);
    return v != nullptr && v->kind == kString ? &v->str : nullptr;
  }
};

/// Deepest value nesting ParseJson accepts (a top-level scalar is depth 1);
/// deeper input fails with "nesting too deep" instead of overflowing the
/// stack.
inline constexpr int kMaxJsonDepth = 256;

/// Parses `text` (which must be exactly one JSON value plus whitespace).
/// Numbers follow JSON's grammar and must be finite doubles.
/// On failure returns false and, when `error` is non-null, a one-line
/// description with the byte offset.
bool ParseJson(std::string_view text, JsonValue* out, std::string* error = nullptr);

/// Reads and parses a whole file; IO failures land in `error` too.
bool ParseJsonFile(const std::string& path, JsonValue* out,
                   std::string* error = nullptr);

}  // namespace apt::obs
