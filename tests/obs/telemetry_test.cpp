// Online telemetry tests: log-scale histogram bucket math and merge
// algebra, windowed time-series determinism (including under real thread
// schedules — this file runs in the TSan job), the Telemetry registry and
// its exporters, and the declarative SLO rules + watchdog.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/random.h"
#include "obs/flight.h"
#include "obs/histogram.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/telemetry.h"
#include "runtime/parallel_for.h"

namespace apt {
namespace {

using obs::Histogram;
using obs::JsonValue;
using obs::ParseJson;
using obs::SloCmp;
using obs::SloRule;
using obs::SloStat;
using obs::SloViolation;
using obs::SloWatchdog;
using obs::Telemetry;
using obs::TimeSeries;
using obs::WindowStats;

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::Metrics::ResetForTest(); }
  void TearDown() override { obs::Metrics::ResetForTest(); }
};

// ---------------------------------------------------------------------------
// Histogram bucket math
// ---------------------------------------------------------------------------

TEST(HistogramTest, BucketBoundsContainTheirValues) {
  for (const double v : {1e-9, 2.5e-7, 1e-6, 3.3e-4, 1e-3, 0.5, 1.0, 1.5,
                         7.0, 123.0, 8191.0}) {
    const int b = Histogram::BucketIndexOf(v);
    ASSERT_GT(b, 0) << v;
    ASSERT_LT(b, Histogram::kNumBuckets - 1) << v;
    EXPECT_LE(Histogram::BucketLowerBound(b), v) << v;
    EXPECT_LT(v, Histogram::BucketUpperBound(b)) << v;
    // ~12.5% relative width: 8 sub-buckets per octave.
    EXPECT_LE(Histogram::BucketWidth(b), v * 0.125 * 1.0001) << v;
  }
}

TEST(HistogramTest, BucketIndexIsMonotone) {
  int prev = 0;
  for (double v = 1e-9; v < 1e4; v *= 1.07) {
    const int b = Histogram::BucketIndexOf(v);
    EXPECT_GE(b, prev) << v;
    prev = b;
  }
}

TEST(HistogramTest, UnderflowOverflowAndJunkLandInSentinelBuckets) {
  EXPECT_EQ(Histogram::BucketIndexOf(0.0), 0);
  EXPECT_EQ(Histogram::BucketIndexOf(-1.0), 0);
  EXPECT_EQ(Histogram::BucketIndexOf(1e-12), 0);
  EXPECT_EQ(Histogram::BucketIndexOf(std::nan("")), 0);
  EXPECT_EQ(Histogram::BucketIndexOf(1e9), Histogram::kNumBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndexOf(std::numeric_limits<double>::infinity()),
            Histogram::kNumBuckets - 1);
}

TEST(HistogramTest, RecordAndExactStats) {
  Histogram h;
  h.Record(1e-3);
  h.Record(2e-3);
  h.Record(3e-3);
  EXPECT_EQ(h.Count(), 3);
  EXPECT_NEAR(h.Sum(), 6e-3, 1e-9);
  EXPECT_NEAR(h.Mean(), 2e-3, 1e-9);
  EXPECT_NEAR(h.Min(), 1e-3, 1e-9);  // min/max are exact, not bucketed
  EXPECT_NEAR(h.Max(), 3e-3, 1e-9);
}

TEST(HistogramTest, QuantileWithinOneBucketWidth) {
  Histogram h;
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) {
    values.push_back(static_cast<double>(i) * 1e-5);
    h.Record(values.back());
  }
  for (const double q : {0.5, 0.95, 0.99}) {
    const double exact =
        values[static_cast<std::size_t>(std::ceil(q * 1000.0)) - 1];
    const double online = h.ValueAtQuantile(q);
    // Nearest-rank over bucket UPPER bounds: never under-reports, and is
    // off by at most the bucket's width.
    EXPECT_GE(online, exact) << q;
    EXPECT_LE(online - exact,
              Histogram::BucketWidth(Histogram::BucketIndexOf(exact)) * 1.0001)
        << q;
  }
  // Overflow bucket reports the exact max instead of an upper bound.
  h.Record(1e9);
  EXPECT_DOUBLE_EQ(h.ValueAtQuantile(1.0), 1e9);
}

TEST(HistogramTest, MergeIsAssociativeAndCommutative) {
  Histogram a, b, c;
  for (int i = 0; i < 100; ++i) a.Record(1e-4 * (i + 1));
  for (int i = 0; i < 50; ++i) b.Record(3e-3 * (i + 1));
  for (int i = 0; i < 25; ++i) c.Record(7e-2 * (i + 1));

  Histogram ab_c, a_bc, ba;
  ab_c.Merge(a);
  ab_c.Merge(b);
  ab_c.Merge(c);
  a_bc.Merge(b);
  a_bc.Merge(c);
  a_bc.Merge(a);
  ba.Merge(b);
  ba.Merge(a);

  Histogram ab;
  ab.Merge(a);
  ab.Merge(b);
  EXPECT_EQ(ab.Count(), ba.Count());
  EXPECT_EQ(ab_c.Count(), a_bc.Count());
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(ab.BucketCount(i), ba.BucketCount(i)) << i;
    EXPECT_EQ(ab_c.BucketCount(i), a_bc.BucketCount(i)) << i;
  }
  // Fixed-point sums make the merge algebra exact, not approximately so.
  EXPECT_DOUBLE_EQ(ab.Sum(), ba.Sum());
  EXPECT_DOUBLE_EQ(ab_c.Sum(), a_bc.Sum());
  EXPECT_DOUBLE_EQ(ab_c.Min(), a_bc.Min());
  EXPECT_DOUBLE_EQ(ab_c.Max(), a_bc.Max());
  EXPECT_DOUBLE_EQ(ab_c.ValueAtQuantile(0.99), a_bc.ValueAtQuantile(0.99));
}

TEST(HistogramTest, ConcurrentRecordIsDeterministic) {
  // Same multiset recorded under two different real-thread interleavings
  // must produce bit-identical stats (atomic buckets, fixed-point sums).
  // Under TSan this doubles as the data-race check for the hot path.
  const auto fill = [](Histogram& h) {
    ParallelFor(0, 8, [&](std::int64_t t) {
      for (int i = 0; i < 1000; ++i) {
        h.Record(1e-5 * static_cast<double>(t * 1000 + i + 1));
      }
    });
  };
  Histogram h1, h2;
  fill(h1);
  fill(h2);
  EXPECT_EQ(h1.Count(), h2.Count());
  EXPECT_DOUBLE_EQ(h1.Sum(), h2.Sum());
  EXPECT_DOUBLE_EQ(h1.Min(), h2.Min());
  EXPECT_DOUBLE_EQ(h1.Max(), h2.Max());
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(h1.BucketCount(i), h2.BucketCount(i)) << i;
  }
}

// ---------------------------------------------------------------------------
// TimeSeries windows
// ---------------------------------------------------------------------------

TEST(TimeSeriesTest, WindowBoundariesAreHalfOpen) {
  TimeSeries ts("t", 1e-3);
  ts.Record(0.0, 1.0);       // window 0
  ts.Record(0.9999e-3, 2.0); // still window 0
  ts.Record(1e-3, 3.0);      // exactly the boundary -> window 1
  const auto closed = ts.ClosedWindows(1e-3);
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].window, 0);
  EXPECT_EQ(closed[0].count, 2);
  EXPECT_DOUBLE_EQ(closed[0].sum, 3.0);
  EXPECT_DOUBLE_EQ(closed[0].t0_s, 0.0);
  EXPECT_DOUBLE_EQ(closed[0].t1_s, 1e-3);
  // AllWindows also sees the still-open window 1.
  EXPECT_EQ(ts.AllWindows().size(), 2u);
  // Advancing "now" closes it.
  EXPECT_EQ(ts.ClosedWindows(2e-3).size(), 2u);
}

TEST(TimeSeriesTest, RingRetainsOnlyRecentWindows) {
  TimeSeries ts("t", 1.0);
  for (int w = 0; w < 100; ++w) {
    ts.Record(static_cast<double>(w) + 0.5, 1.0);
  }
  const auto all = ts.AllWindows();
  ASSERT_EQ(all.size(), static_cast<std::size_t>(TimeSeries::kRingWindows));
  EXPECT_EQ(all.front().window, 100 - TimeSeries::kRingWindows);
  EXPECT_EQ(all.back().window, 99);
}

TEST(TimeSeriesTest, ThreadedRecordingIsScheduleIndependent) {
  const auto fill = [](TimeSeries& ts) {
    ParallelFor(0, 8, [&](std::int64_t t) {
      for (int i = 0; i < 500; ++i) {
        const double time_s = 1e-5 * static_cast<double>(i);
        ts.Record(time_s, 1e-4 * static_cast<double>(t + 1));
      }
    });
  };
  TimeSeries a("a", 1e-3), b("b", 1e-3);
  fill(a);
  fill(b);
  const auto wa = a.ClosedWindows(1.0);
  const auto wb = b.ClosedWindows(1.0);
  ASSERT_EQ(wa.size(), wb.size());
  for (std::size_t i = 0; i < wa.size(); ++i) {
    EXPECT_EQ(wa[i].window, wb[i].window);
    EXPECT_EQ(wa[i].count, wb[i].count);
    EXPECT_DOUBLE_EQ(wa[i].sum, wb[i].sum);
    EXPECT_DOUBLE_EQ(wa[i].min, wb[i].min);
    EXPECT_DOUBLE_EQ(wa[i].max, wb[i].max);
    EXPECT_DOUBLE_EQ(wa[i].p99, wb[i].p99);
  }
}

// ---------------------------------------------------------------------------
// Telemetry registry + exporters
// ---------------------------------------------------------------------------

TEST_F(TelemetryTest, SeriesCreateFindAndReconfigure) {
  Telemetry& t = Telemetry::Global();
  TimeSeries& s = t.series("x", 1e-3);
  EXPECT_EQ(&t.series("x", 1e-3), &s);  // same window -> same series
  s.Record(0.0, 1.0);
  EXPECT_EQ(t.Find("x"), &s);
  EXPECT_EQ(t.Find("y"), nullptr);
  // Different window reconfigures: replaces the series and clears its data.
  TimeSeries& s2 = t.series("x", 2e-3);
  EXPECT_DOUBLE_EQ(s2.window_s(), 2e-3);
  EXPECT_TRUE(s2.AllWindows().empty());
}

TEST_F(TelemetryTest, ResetForTestClearsHistogramsAndSeries) {
  obs::Metrics::Global().histogram("h").Record(1.0);
  Telemetry::Global().series("s", 1e-3).Record(0.0, 1.0);
  obs::Metrics::ResetForTest();
  EXPECT_EQ(obs::Metrics::Global().histogram("h").Count(), 0);
  const TimeSeries* s = Telemetry::Global().Find("s");
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(s->AllWindows().empty());
}

TEST_F(TelemetryTest, TimelineJsonlRoundTrips) {
  Telemetry& t = Telemetry::Global();
  TimeSeries& s = t.series("lat", 1e-3);
  s.Record(0.5e-3, 2e-4);
  s.Record(0.6e-3, 4e-4);
  s.Record(1.5e-3, 8e-4);
  std::ostringstream os;
  t.WriteTimelineJsonl(os);
  std::istringstream in(os.str());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  JsonValue header;
  ASSERT_TRUE(ParseJson(line, &header, nullptr)) << line;
  EXPECT_EQ(static_cast<int>(header.NumOr("schema_version", -1)), 1);
  int rows = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    JsonValue row;
    ASSERT_TRUE(ParseJson(line, &row, nullptr)) << line;
    ASSERT_NE(row.StrOrNull("series"), nullptr);
    EXPECT_EQ(*row.StrOrNull("series"), "lat");
    ++rows;
  }
  EXPECT_EQ(rows, 2);  // two windows
}

TEST_F(TelemetryTest, PrometheusTextSmoke) {
  obs::Metrics::Global().counter("c.total").Increment();
  obs::Metrics::Global().histogram("h.lat").Record(1e-3);
  Telemetry::Global().series("s.lat", 1e-3).Record(0.5e-3, 1e-4);
  std::ostringstream os;
  obs::WritePrometheusText(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE apt_c_total counter"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE apt_h_lat histogram"), std::string::npos);
  EXPECT_NE(text.find("apt_h_lat_bucket{le=\"+Inf\"} 1"), std::string::npos);
  EXPECT_NE(text.find("apt_series_s_lat"), std::string::npos);
}

TEST_F(TelemetryTest, FlightDumpCarriesTelemetrySection) {
  Telemetry::Global().series("f.lat", 1e-3).Record(0.5e-3, 1e-4);
  obs::Flight().Record("test", "x", 0.0, {});
  std::ostringstream os;
  obs::Flight().WriteJson(os, "test");
  JsonValue doc;
  ASSERT_TRUE(ParseJson(os.str(), &doc, nullptr));
  const JsonValue* telemetry = doc.Find("telemetry");
  ASSERT_NE(telemetry, nullptr);
  const JsonValue* series = telemetry->Find("f.lat");
  ASSERT_NE(series, nullptr);
  ASSERT_EQ(series->kind, JsonValue::kArray);
  ASSERT_EQ(series->arr.size(), 1u);
  EXPECT_EQ(static_cast<int>(series->arr[0].NumOr("count", 0)), 1);
}

// ---------------------------------------------------------------------------
// SLO rules + watchdog
// ---------------------------------------------------------------------------

TEST(SloRuleTest, ParsesTextualForms) {
  SloRule r;
  ASSERT_TRUE(obs::ParseSloRule("serve.latency_s p99 < 2ms", &r));
  EXPECT_EQ(r.series, "serve.latency_s");
  EXPECT_EQ(r.stat, SloStat::kP99);
  EXPECT_EQ(r.cmp, SloCmp::kLt);
  EXPECT_DOUBLE_EQ(r.bound, 2e-3);

  ASSERT_TRUE(obs::ParseSloRule("train.device.busy_s skew < 1.5x", &r));
  EXPECT_EQ(r.stat, SloStat::kSkew);
  EXPECT_DOUBLE_EQ(r.bound, 1.5);

  ASSERT_TRUE(obs::ParseSloRule("q count > 10", &r));
  EXPECT_EQ(r.cmp, SloCmp::kGt);
  EXPECT_DOUBLE_EQ(r.bound, 10.0);

  ASSERT_TRUE(obs::ParseSloRule("q p50 < 250us", &r));
  EXPECT_DOUBLE_EQ(r.bound, 2.5e-4);

  std::string error;
  EXPECT_FALSE(obs::ParseSloRule("", &r, &error));
  EXPECT_FALSE(obs::ParseSloRule("q p42 < 1", &r, &error));
  EXPECT_FALSE(obs::ParseSloRule("q p99 <= 1", &r, &error));
  EXPECT_FALSE(obs::ParseSloRule("q p99 < 1zz", &r, &error));
  EXPECT_FALSE(obs::ParseSloRule("q p99 < 1 extra", &r, &error));
}

// strtod accepts "nan", "inf" and overflowing literals. A NaN bound makes
// `value < bound` false in every window (the rule always fires), an infinite
// one never fires; both are rejected with a message.
TEST(SloRuleTest, RejectsNonFiniteBounds) {
  for (const char* text : {"x p99 < nan", "x p99 < inf", "x p99 < 1e999", "x max > -inf",
                           "x p50 < nanms", "x mean < infinity"}) {
    SloRule r;
    std::string error;
    EXPECT_FALSE(obs::ParseSloRule(text, &r, &error)) << text;
    EXPECT_NE(error.find("not finite"), std::string::npos) << text << ": " << error;
  }
}

// Seeded mutation loop over valid rules: edits characters and splices in
// tokens strtod treats specially. Parsing must never throw, every rejection
// must explain itself, and every accepted rule must carry a finite bound.
TEST(SloRuleTest, MutatedRulesNeverThrowAndAcceptOnlyFiniteBounds) {
  const std::string seeds[] = {"serve.latency_s p99 < 2ms", "train.device.busy_s skew < 1.5x",
                               "q count > 10", "q p50 < 250us", "serve.shed count < 1",
                               "x mean > 0.5s", "y min < 3e-7ns"};
  const std::string splices[] = {"nan", "inf", "1e999", "-", "e", "x", "ms", " ", "0x1p4",
                                 "1e-400", ".", "<", ">", "p99"};
  const std::string alphabet = "0123456789.eE+-xnsumiafp <>";
  Rng rng(20261017);
  int accepted = 0, rejected = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    std::string text = seeds[rng.NextBelow(std::size(seeds))];
    const int edits = 1 + static_cast<int>(rng.NextBelow(3));
    for (int e = 0; e < edits; ++e) {
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
        default:  // splice a special token, replacing the rule's last word
          if (rng.NextBelow(2) == 0) {
            text = text.substr(0, text.rfind(' ') + 1) + splices[rng.NextBelow(std::size(splices))];
          } else {
            text.insert(at, splices[rng.NextBelow(std::size(splices))]);
          }
          break;
      }
    }
    SloRule r;
    std::string error;
    bool ok = false;
    EXPECT_NO_THROW(ok = obs::ParseSloRule(text, &r, &error)) << text;
    if (ok) {
      ++accepted;
      EXPECT_TRUE(std::isfinite(r.bound)) << text << " -> " << r.bound;
    } else {
      ++rejected;
      EXPECT_FALSE(error.empty()) << text;
    }
  }
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

TEST(SloRuleTest, StatOfWindow) {
  WindowStats w;
  w.count = 4;
  w.sum = 8.0;
  w.min = 1.0;
  w.max = 3.0;
  w.p50 = 2.0;
  w.p95 = 2.9;
  w.p99 = 3.0;
  EXPECT_DOUBLE_EQ(obs::SloStatOf(w, SloStat::kMean), 2.0);
  EXPECT_DOUBLE_EQ(obs::SloStatOf(w, SloStat::kCount), 4.0);
  EXPECT_DOUBLE_EQ(obs::SloStatOf(w, SloStat::kSkew), 1.5);  // max / mean
  EXPECT_DOUBLE_EQ(obs::SloStatOf(w, SloStat::kP99), 3.0);
}

TEST_F(TelemetryTest, WatchdogFiresOncePerWindowAndRespectsCursor) {
  TimeSeries& s = Telemetry::Global().series("w.lat", 1e-3);
  SloRule rule;
  rule.name = "lat_p99";
  rule.series = "w.lat";
  rule.stat = SloStat::kP99;
  rule.cmp = SloCmp::kLt;
  rule.bound = 1e-3;
  SloWatchdog dog({rule});
  std::vector<SloViolation> fired;
  dog.set_callback([&fired](const SloViolation& v) { fired.push_back(v); });

  s.Record(0.5e-3, 5e-3);  // window 0 violates (5ms >= 1ms)
  EXPECT_EQ(dog.Evaluate(1e-3), 1);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].window.window, 0);
  EXPECT_DOUBLE_EQ(fired[0].value, fired[0].window.p99);
  // Re-evaluating at the same time does not re-fire the same window.
  EXPECT_EQ(dog.Evaluate(1e-3), 0);
  EXPECT_EQ(dog.violations_total(), 1);
  EXPECT_GE(obs::Metrics::Global().counter("slo.violations").Get(), 1);
}

TEST_F(TelemetryTest, WatchdogSustainAndMinCount) {
  TimeSeries& s = Telemetry::Global().series("w2.lat", 1e-3);
  SloRule rule;
  rule.name = "lat_p99_sustained";
  rule.series = "w2.lat";
  rule.stat = SloStat::kP99;
  rule.cmp = SloCmp::kLt;
  rule.bound = 1e-3;
  rule.min_count = 2;
  rule.sustain_windows = 2;
  SloWatchdog dog({rule});
  int fired = 0;
  dog.set_callback([&fired](const SloViolation&) { ++fired; });

  // Window 0: violating but only 1 sample -> skipped by min_count.
  s.Record(0.5e-3, 5e-3);
  // Window 1: violating with 2 samples -> streak 1, below sustain.
  s.Record(1.2e-3, 5e-3);
  s.Record(1.3e-3, 5e-3);
  EXPECT_EQ(dog.Evaluate(2e-3), 0);
  EXPECT_EQ(fired, 0);
  // Window 2: violating again -> streak 2 == sustain, fires.
  s.Record(2.2e-3, 5e-3);
  s.Record(2.3e-3, 5e-3);
  EXPECT_EQ(dog.Evaluate(3e-3), 1);
  EXPECT_EQ(fired, 1);
  // Window 3 healthy: streak resets; window 4 violating alone stays quiet.
  s.Record(3.2e-3, 1e-4);
  s.Record(3.3e-3, 1e-4);
  s.Record(4.2e-3, 5e-3);
  s.Record(4.3e-3, 5e-3);
  EXPECT_EQ(dog.Evaluate(5e-3), 0);
  EXPECT_EQ(fired, 1);
}

TEST_F(TelemetryTest, WatchdogSkewRuleSeesStraggler) {
  TimeSeries& s = Telemetry::Global().series("w3.busy", 1e-3);
  SloRule rule;
  rule.name = "busy_skew";
  rule.series = "w3.busy";
  rule.stat = SloStat::kSkew;
  rule.cmp = SloCmp::kLt;
  rule.bound = 1.5;
  rule.min_count = 2;
  SloWatchdog dog({rule});
  int fired = 0;
  dog.set_callback([&fired](const SloViolation&) { ++fired; });

  // Window 0: balanced devices (skew 1.0) -> healthy.
  for (int d = 0; d < 4; ++d) s.Record(0.5e-3, 1e-4);
  // Window 1: one device 3x busier -> skew = 3 / 1.5 = 2.0 >= 1.5.
  for (int d = 0; d < 3; ++d) s.Record(1.5e-3, 1e-4);
  s.Record(1.5e-3, 3e-4);
  EXPECT_EQ(dog.Evaluate(2e-3), 1);
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace apt
