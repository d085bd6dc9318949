// apt::obs unit tests: JSON writer + the shared reader in obs/json.h
// (which replaced the mini parser these tests used to carry privately),
// metrics registry, tracer behaviour under the fork-join pool, and
// well-formedness of the exported Chrome trace.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/random.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/parallel_for.h"

namespace apt {
namespace {

using obs::JsonValue;
using obs::ParseJson;
using obs::ParseJsonFile;

// Resets tracing to off + empty buffers around every tracer test so the
// suite's tests do not leak events into each other.
class TracerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::SetTracingEnabled(false);
    obs::Tracer::Global().Clear();
  }
  void TearDown() override {
    obs::SetTracingEnabled(false);
    obs::Tracer::Global().Clear();
  }
};

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

TEST(JsonWriterTest, NestingAndSeparators) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.BeginObject();
  w.KV("a", std::int64_t{1});
  w.Key("b");
  w.BeginArray();
  w.Value(std::int64_t{2});
  w.Value("x");
  w.BeginObject();
  w.KV("c", true);
  w.EndObject();
  w.EndArray();
  w.KV("d", 1.5);
  w.EndObject();
  EXPECT_EQ(os.str(), R"({"a":1,"b":[2,"x",{"c":true}],"d":1.5})");
}

TEST(JsonWriterTest, EscapesStrings) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.Value("q\"b\\s\nn\tt");
  EXPECT_EQ(os.str(), "\"q\\\"b\\\\s\\nn\\tt\"");
  EXPECT_EQ(obs::JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonWriterTest, NonFiniteBecomesNull) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.BeginArray();
  w.Value(std::nan(""));
  w.Value(std::numeric_limits<double>::infinity());
  w.EndArray();
  EXPECT_EQ(os.str(), "[null,null]");
}

TEST(JsonWriterTest, RawValueInterleavesWithSiblings) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.BeginArray();
  w.RawValue(R"({"k":1})");
  w.RawValue("[2]");
  w.Value(std::int64_t{3});
  w.EndArray();
  EXPECT_EQ(os.str(), R"([{"k":1},[2],3])");
  JsonValue v;
  ASSERT_TRUE(ParseJson(os.str(), &v));
  EXPECT_EQ(v.arr.size(), 3u);
}

// ---------------------------------------------------------------------------
// Shared JSON reader (obs/json.h) — edge cases around escaping and structure
// ---------------------------------------------------------------------------

TEST(JsonReaderTest, ControlCharactersRoundTripThroughWriterAndParser) {
  // Every control character the writer must escape (\u00XX) plus the named
  // escapes; the parser must reproduce the original bytes exactly.
  std::string original;
  for (char c = 1; c < 0x20; ++c) original.push_back(c);
  original += "\"\\/plain";
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.Value(original);
  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(os.str(), &v, &error)) << error;
  ASSERT_EQ(v.kind, JsonValue::kString);
  EXPECT_EQ(v.str, original);
}

TEST(JsonReaderTest, UnicodeEscapesDecodeToUtf8) {
  JsonValue v;
  // 2-byte (é), 3-byte (€), and ASCII \u forms — as escape sequences, so the
  // parser's \uXXXX → UTF-8 path is actually exercised.
  ASSERT_TRUE(ParseJson(R"("\u00e9\u20acA")", &v));
  EXPECT_EQ(v.str, "\xC3\xA9\xE2\x82\xAC" "A");
}

TEST(JsonReaderTest, NestedDocumentRoundTrips) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.BeginObject();
  w.KV("int", std::int64_t{42});
  w.KV("neg", -2.5);
  w.KV("big", 1.25e18);
  w.KV("flag", false);
  w.Key("list");
  w.BeginArray();
  w.Value("a");
  w.BeginObject();
  w.KV("inner", std::int64_t{-7});
  w.EndObject();
  w.EndArray();
  w.EndObject();

  JsonValue v;
  std::string error;
  ASSERT_TRUE(ParseJson(os.str(), &v, &error)) << error;
  ASSERT_EQ(v.kind, JsonValue::kObject);
  EXPECT_DOUBLE_EQ(v.NumOr("int", 0.0), 42.0);
  EXPECT_DOUBLE_EQ(v.NumOr("neg", 0.0), -2.5);
  EXPECT_DOUBLE_EQ(v.NumOr("big", 0.0), 1.25e18);
  ASSERT_NE(v.Find("flag"), nullptr);
  EXPECT_EQ(v.Find("flag")->kind, JsonValue::kBool);
  EXPECT_FALSE(v.Find("flag")->b);
  const JsonValue* list = v.Find("list");
  ASSERT_NE(list, nullptr);
  ASSERT_EQ(list->arr.size(), 2u);
  EXPECT_EQ(list->arr[0].str, "a");
  EXPECT_DOUBLE_EQ(list->arr[1].NumOr("inner", 0.0), -7.0);
}

TEST(JsonReaderTest, RejectsMalformedInputWithOffset) {
  JsonValue v;
  std::string error;
  EXPECT_FALSE(ParseJson("{\"a\":1", &v, &error));  // unterminated object
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(ParseJson("[1,2] garbage", &v, &error));  // trailing junk
  EXPECT_NE(error.find("byte"), std::string::npos) << error;
  EXPECT_FALSE(ParseJson(R"("bad \q escape")", &v, &error));  // unknown escape
  EXPECT_FALSE(ParseJson("", &v, &error));
  EXPECT_FALSE(ParseJson("nul", &v, &error));  // truncated literal
}

TEST(JsonReaderTest, NumbersAtBufferEndDoNotOverread) {
  // The parser copies each number out of the view before strtod; a number
  // that runs to the very end of a non-NUL-terminated view must still parse.
  const std::string text = "[1.5e3]";
  JsonValue v;
  ASSERT_TRUE(ParseJson(std::string_view(text.data(), text.size()), &v));
  EXPECT_DOUBLE_EQ(v.arr[0].num, 1500.0);
}

TEST(JsonReaderTest, DuplicateKeysLastWins) {
  JsonValue v;
  ASSERT_TRUE(ParseJson(R"({"k":1,"k":2})", &v));
  EXPECT_DOUBLE_EQ(v.NumOr("k", 0.0), 2.0);
}

// strtod also takes inf, nan, hex, a leading '+' and overflowing literals;
// none is JSON, and a non-finite number would slip past `rel > tolerance`.
TEST(JsonReaderTest, NumbersFollowJsonGrammarAndStayFinite) {
  for (const char* text : {"inf", "nan", "+1", "0x10", "1.", ".5", "01", "-", "1e", "1e+",
                           "Infinity", "-inf", "NaN", "1e999", "-1e400", "0x1p4"}) {
    JsonValue v;
    std::string error;
    EXPECT_FALSE(ParseJson(text, &v, &error)) << text;
    EXPECT_FALSE(ParseJson("[" + std::string(text) + "]", &v, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
  for (const auto& [text, num] : std::vector<std::pair<const char*, double>>{
           {"0", 0.0}, {"-0", -0.0}, {"1.5e-3", 1.5e-3}, {"1E+2", 100.0}, {"-12.25", -12.25},
           {"1e-400", 0.0}}) {
    JsonValue v;
    ASSERT_TRUE(ParseJson(text, &v)) << text;
    EXPECT_EQ(v.num, num) << text;
  }
  std::string error;
  JsonValue v;
  EXPECT_FALSE(ParseJson(R"({"rel": 1e999})", &v, &error));
  EXPECT_NE(error.find("out of range"), std::string::npos) << error;
}

TEST(JsonReaderTest, RejectsNestingTooDeep) {
  const std::size_t cap = obs::kMaxJsonDepth;
  JsonValue v;
  std::string error;
  EXPECT_TRUE(ParseJson(std::string(cap, '[') + std::string(cap, ']'), &v, &error)) << error;
  EXPECT_FALSE(ParseJson(std::string(cap + 1, '[') + std::string(cap + 1, ']'), &v, &error));
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
  EXPECT_FALSE(ParseJson(std::string(100000, '['), &v, &error));
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;
  EXPECT_FALSE(ParseJson(std::string(100000, '{'), &v, &error));
}

/// Writes `v` through JsonWriter (members in key order, numbers as doubles).
void WriteJson(const JsonValue& v, obs::JsonWriter& w) {
  switch (v.kind) {
    case JsonValue::kNull: w.RawValue("null"); break;
    case JsonValue::kBool: w.Value(v.b); break;
    case JsonValue::kNumber: w.Value(v.num); break;
    case JsonValue::kString: w.Value(v.str); break;
    case JsonValue::kArray:
      w.BeginArray();
      for (const JsonValue& e : v.arr) WriteJson(e, w);
      w.EndArray();
      break;
    case JsonValue::kObject:
      w.BeginObject();
      for (const auto& [key, e] : v.obj) {
        w.Key(key);
        WriteJson(e, w);
      }
      w.EndObject();
      break;
  }
}

std::string ToJson(const JsonValue& v) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  WriteJson(v, w);
  return os.str();
}

std::string RandomString(Rng& rng) {
  static const std::string chars = "az09 \"\\/\n\t\r\x01\x1f{}[],:-+.e\xc3\xa9";
  std::string s;
  for (std::uint64_t n = rng.NextBelow(6); n > 0; --n) s += chars[rng.NextBelow(chars.size())];
  return s;
}

/// A random document: nested containers, strings that need escapes, and
/// numbers across many magnitudes.
JsonValue RandomDocument(Rng& rng, int depth) {
  JsonValue v;
  switch (rng.NextBelow(depth > 0 ? 6 : 4)) {
    case 0: break;
    case 1:
      v.kind = JsonValue::kBool;
      v.b = rng.NextBelow(2) == 1;
      break;
    case 2:
      v.kind = JsonValue::kNumber;
      v.num = rng.NextBelow(2) == 0
                  ? static_cast<double>(static_cast<std::int64_t>(rng.NextBelow(2000)) - 1000)
                  : (rng.NextDouble() - 0.5) *
                        std::pow(10.0, static_cast<double>(rng.NextBelow(80)) - 40.0);
      break;
    case 3:
      v.kind = JsonValue::kString;
      v.str = RandomString(rng);
      break;
    case 4:
      v.kind = JsonValue::kArray;
      for (std::uint64_t n = rng.NextBelow(5); n > 0; --n) {
        v.arr.push_back(RandomDocument(rng, depth - 1));
      }
      break;
    default:
      v.kind = JsonValue::kObject;
      for (std::uint64_t n = rng.NextBelow(5); n > 0; --n) {
        v.obj.insert_or_assign(RandomString(rng), RandomDocument(rng, depth - 1));
      }
      break;
  }
  return v;
}

bool AllNumbersFinite(const JsonValue& v) {
  if (v.kind == JsonValue::kNumber) return std::isfinite(v.num);
  for (const JsonValue& e : v.arr) {
    if (!AllNumbersFinite(e)) return false;
  }
  for (const auto& [key, e] : v.obj) {
    if (!AllNumbersFinite(e)) return false;
  }
  return true;
}

// Seeded mutation loop over documents JsonWriter wrote. Each document must
// round-trip byte for byte; its mutants (character edits plus spliced tokens
// strtod treats specially and runs of brackets past the depth cap) must
// parse without crashing, explain every rejection, and, when accepted, hold
// only finite numbers and round-trip through the writer in turn.
TEST(JsonReaderTest, MutatedDocumentsNeverCrashAndWrittenOnesRoundTrip) {
  const std::string splices[] = {"inf",  "nan", "+1",   "0x1p4",  "1e999", "-",     "1.",
                                 ".5",   "01",  "\\u00", "\"",     "null",  "NaN",   "-Infinity",
                                 "[[[[", "]}",  ",",    ":",      "1e-400", "\\",
                                 std::string(300, '['), std::string(300, '{')};
  const std::string alphabet = "{}[]\",:0123456789-+.eE \\utfnrl";
  Rng rng(20261018);
  int accepted = 0, rejected = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const std::string written = ToJson(RandomDocument(rng, 4));
    JsonValue parsed;
    std::string error;
    ASSERT_TRUE(ParseJson(written, &parsed, &error)) << written << ": " << error;
    ASSERT_EQ(ToJson(parsed), written);

    std::string text = written;
    for (std::uint64_t e = 1 + rng.NextBelow(3); e > 0; --e) {
      const std::size_t at = rng.NextBelow(text.size() + 1);
      switch (rng.NextBelow(4)) {
        case 0:  // replace one character
          if (at < text.size()) text[at] = alphabet[rng.NextBelow(alphabet.size())];
          break;
        case 1:  // insert one character
          text.insert(at, 1, alphabet[rng.NextBelow(alphabet.size())]);
          break;
        case 2:  // delete one character
          if (at < text.size()) text.erase(at, 1);
          break;
        default:
          text.insert(at, splices[rng.NextBelow(std::size(splices))]);
          break;
      }
    }
    JsonValue v;
    bool ok = false;
    error.clear();
    EXPECT_NO_THROW(ok = ParseJson(text, &v, &error)) << text;
    if (!ok) {
      ++rejected;
      EXPECT_FALSE(error.empty()) << text;
      continue;
    }
    ++accepted;
    EXPECT_TRUE(AllNumbersFinite(v)) << text;
    const std::string rewritten = ToJson(v);
    JsonValue again;
    ASSERT_TRUE(ParseJson(rewritten, &again, &error)) << text << " -> " << rewritten;
    EXPECT_EQ(ToJson(again), rewritten) << text;
  }
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

// The registry is process-global, so without a reset these assertions could
// only ever be >= checks (other tests' increments bleed in). ResetForTest
// zeroes it, making every expectation exact and the suite order-independent.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::Metrics::ResetForTest(); }
  void TearDown() override { obs::Metrics::ResetForTest(); }
};

TEST_F(MetricsTest, CounterAndGaugeRoundTrip) {
  obs::Metrics& m = obs::Metrics::Global();
  obs::Counter& c = m.counter("test.obs.counter");
  obs::Gauge& g = m.gauge("test.obs.gauge");
  const std::int64_t before = c.Get();
  c.Increment();
  c.Add(4);
  EXPECT_EQ(c.Get(), before + 5);
  // Same name -> same handle.
  EXPECT_EQ(&m.counter("test.obs.counter"), &c);
  g.Set(0.25);
  EXPECT_DOUBLE_EQ(m.gauge("test.obs.gauge").Get(), 0.25);
}

TEST_F(MetricsTest, JsonDumpParsesAndContainsNames) {
  obs::Metrics& m = obs::Metrics::Global();
  m.counter("test.obs.dump").Add(7);
  m.gauge("test.obs.rate").Set(0.5);
  JsonValue v;
  ASSERT_TRUE(ParseJson(m.ToJson(), &v));
  const JsonValue* counters = v.Find("counters");
  const JsonValue* gauges = v.Find("gauges");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(gauges, nullptr);
  ASSERT_NE(counters->Find("test.obs.dump"), nullptr);
  EXPECT_DOUBLE_EQ(counters->Find("test.obs.dump")->num, 7.0);
  ASSERT_NE(gauges->Find("test.obs.rate"), nullptr);
  EXPECT_DOUBLE_EQ(gauges->Find("test.obs.rate")->num, 0.5);
}

TEST_F(MetricsTest, DumpCarriesSchemaHeader) {
  JsonValue v;
  ASSERT_TRUE(ParseJson(obs::Metrics::Global().ToJson(), &v));
  const JsonValue* version = v.Find("schema_version");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(static_cast<std::int64_t>(version->num), obs::kObsSchemaVersion);
  const JsonValue* meta = v.Find("meta");
  ASSERT_NE(meta, nullptr);
  ASSERT_NE(meta->StrOrNull("kind"), nullptr);
  EXPECT_EQ(*meta->StrOrNull("kind"), "metrics");
}

TEST_F(MetricsTest, ResetForTestZeroesEverything) {
  obs::Metrics& m = obs::Metrics::Global();
  m.counter("test.obs.reset").Add(3);
  m.gauge("test.obs.reset_gauge").Set(1.5);
  obs::Metrics::ResetForTest();
  EXPECT_EQ(m.counter("test.obs.reset").Get(), 0);
  EXPECT_DOUBLE_EQ(m.gauge("test.obs.reset_gauge").Get(), 0.0);
}

TEST_F(MetricsTest, CountersAreThreadSafeUnderParallelFor) {
  obs::Counter& c = obs::Metrics::Global().counter("test.obs.parallel");
  const std::int64_t before = c.Get();
  ParallelFor(0, 10000, [&](std::int64_t) { c.Increment(); });
  EXPECT_EQ(c.Get(), before + 10000);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST_F(TracerTest, DisabledRecordsNothing) {
  {
    APT_OBS_SCOPE("invisible", "test");
    obs::StageSpan stage("also_invisible", "test");
    stage.Next("still_invisible");
  }
  EXPECT_TRUE(obs::Tracer::Global().Drain().empty());
}

TEST_F(TracerTest, SpansNestOnOneThread) {
  obs::SetTracingEnabled(true);
  {
    APT_OBS_SCOPE("outer", "test");
    { APT_OBS_SCOPE("inner", "test", {{"k", 3.0, nullptr}}); }
  }
  const std::vector<obs::TraceEvent> events = obs::Tracer::Global().Drain();
  ASSERT_EQ(events.size(), 2u);
  // Inner closes first; both slices land on the same host lane and the
  // inner's window is contained in the outer's.
  const obs::TraceEvent& inner = events[0];
  const obs::TraceEvent& outer = events[1];
  EXPECT_STREQ(inner.name, "inner");
  EXPECT_STREQ(outer.name, "outer");
  EXPECT_EQ(inner.pid, obs::kHostPid);
  EXPECT_EQ(inner.tid, outer.tid);
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us + 1e-6);
  ASSERT_EQ(inner.num_args, 1);
  EXPECT_STREQ(inner.args[0].key, "k");
  EXPECT_DOUBLE_EQ(inner.args[0].num, 3.0);
}

TEST_F(TracerTest, StageSpanEmitsSequentialSlices) {
  obs::SetTracingEnabled(true);
  {
    obs::StageSpan stage("permute", "test");
    stage.Next("shuffle");
    stage.Next("execute");
  }
  const std::vector<obs::TraceEvent> events = obs::Tracer::Global().Drain();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].name, "permute");
  EXPECT_STREQ(events[1].name, "shuffle");
  EXPECT_STREQ(events[2].name, "execute");
  // Consecutive stages do not overlap: each starts where the previous ended.
  for (int i = 1; i < 3; ++i) {
    EXPECT_GE(events[static_cast<std::size_t>(i)].ts_us,
              events[static_cast<std::size_t>(i - 1)].ts_us +
                  events[static_cast<std::size_t>(i - 1)].dur_us - 1e-6);
  }
}

TEST_F(TracerTest, FlushUnderParallelForKeepsEveryEvent) {
  // Worker threads record into per-thread buffers; a Drain between rounds
  // must not lose events, and recording continues into the same (still
  // registered) buffers afterwards. TSan covers the data-race side.
  obs::SetTracingEnabled(true);
  constexpr std::int64_t kSpans = 2000;
  const auto emit_round = [](std::int64_t n) {
    ParallelFor(
        0, n, [](std::int64_t) { APT_OBS_SCOPE("work", "test"); },
        /*grain=*/64);
  };
  emit_round(kSpans / 2);
  std::vector<obs::TraceEvent> drained = obs::Tracer::Global().Drain();
  emit_round(kSpans - kSpans / 2);
  const std::vector<obs::TraceEvent> rest = obs::Tracer::Global().Drain();
  drained.insert(drained.end(), rest.begin(), rest.end());
  std::int64_t work_spans = 0;
  for (const obs::TraceEvent& e : drained) {
    if (std::string_view(e.name) == "work") ++work_spans;
  }
  EXPECT_EQ(work_spans, kSpans);
  EXPECT_EQ(obs::Tracer::Global().DroppedEvents(), 0);
  EXPECT_GE(obs::Tracer::Global().NumHostLanes(), 1);
}

TEST_F(TracerTest, SimSpansCarryRegisteredTrack) {
  obs::SetTracingEnabled(true);
  const std::int32_t pid = obs::Tracer::Global().RegisterSimTrack("2gpu", 2);
  EXPECT_GT(pid, obs::kHostPid);
  obs::EmitSimSpan(pid, 1, 0.5, 0.75, "gather", "load",
                   {{"bytes", 128.0, nullptr}});
  const std::vector<obs::TraceEvent> events = obs::Tracer::Global().Drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].pid, pid);
  EXPECT_EQ(events[0].tid, 1);
  EXPECT_EQ(events[0].domain, obs::Domain::kSim);
  // Simulated seconds convert to trace microseconds.
  EXPECT_DOUBLE_EQ(events[0].ts_us, 0.5e6);
  EXPECT_DOUBLE_EQ(events[0].dur_us, 0.25e6);
  const std::vector<obs::SimTrackInfo> tracks = obs::Tracer::Global().SimTracks();
  bool found = false;
  for (const obs::SimTrackInfo& t : tracks) {
    if (t.pid == pid) {
      found = true;
      EXPECT_EQ(t.num_lanes, 2);
    }
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Chrome trace export
// ---------------------------------------------------------------------------

TEST_F(TracerTest, ExportedTraceIsWellFormed) {
  obs::SetTracingEnabled(true);
  const std::int32_t pid = obs::Tracer::Global().RegisterSimTrack("1m x 2gpu", 2);
  { APT_OBS_SCOPE("host_work", "test"); }
  obs::EmitSimSpan(pid, 0, 0.0, 0.25, "compute", "train");
  obs::EmitSimSpan(pid, 1, 0.0, 0.5, "gather", "load");
  obs::EmitSimCounter(pid, 0.5, "traffic_bytes", {{"peer_gpu", 42.0, nullptr}});

  const std::string path = "obs_test_trace.json";
  ASSERT_TRUE(obs::ExportChromeTrace(path));
  JsonValue root;
  ASSERT_TRUE(ParseJsonFile(path, &root)) << "trace is not valid JSON";
  std::remove(path.c_str());

  const JsonValue* events = root.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->kind, JsonValue::kArray);

  int sim_lanes_named = 0;
  bool host_named = false, sim_named = false;
  bool saw_slice = false, saw_counter = false;
  for (const JsonValue& e : events->arr) {
    ASSERT_EQ(e.kind, JsonValue::kObject);
    const JsonValue* ph = e.Find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(e.Find("pid"), nullptr);
    ASSERT_NE(e.Find("name"), nullptr);
    if (ph->str == "M") {
      const JsonValue* args = e.Find("args");
      ASSERT_NE(args, nullptr);
      if (e.Find("name")->str == "process_name") {
        const std::string& pname = args->Find("name")->str;
        if (e.Find("pid")->num == obs::kHostPid) {
          host_named = true;
          EXPECT_NE(pname.find("host"), std::string::npos);
        } else if (e.Find("pid")->num == pid) {
          sim_named = true;
          EXPECT_NE(pname.find("1m x 2gpu"), std::string::npos);
        }
      }
      if (e.Find("name")->str == "thread_name" && e.Find("pid")->num == pid) {
        ++sim_lanes_named;  // expect gpu0 + gpu1
        EXPECT_EQ(args->Find("name")->str.substr(0, 3), "gpu");
      }
    } else if (ph->str == "X") {
      saw_slice = true;
      ASSERT_NE(e.Find("ts"), nullptr);
      ASSERT_NE(e.Find("dur"), nullptr);
      ASSERT_NE(e.Find("cat"), nullptr);
      if (e.Find("name")->str == "gather") {
        EXPECT_EQ(e.Find("pid")->num, pid);
        EXPECT_EQ(e.Find("tid")->num, 1.0);
        EXPECT_DOUBLE_EQ(e.Find("dur")->num, 0.5e6);
      }
    } else if (ph->str == "C") {
      saw_counter = true;
      ASSERT_NE(e.Find("args"), nullptr);
      EXPECT_DOUBLE_EQ(e.Find("args")->Find("peer_gpu")->num, 42.0);
    }
  }
  EXPECT_TRUE(host_named);
  EXPECT_TRUE(sim_named);
  EXPECT_EQ(sim_lanes_named, 2);  // one lane per simulated device
  EXPECT_TRUE(saw_slice);
  EXPECT_TRUE(saw_counter);
}

}  // namespace
}  // namespace apt
