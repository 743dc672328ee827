#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <vector>

#include "stats/histogram.h"
#include "stats/json_writer.h"
#include "stats/metrics.h"
#include "stats/run_record.h"
#include "stats/span.h"
#include "stats/span_export.h"
#include "stats/timeseries.h"

namespace dssmr::stats {
namespace {

TEST(Histogram, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(0.5), 0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_TRUE(h.cdf().empty());
}

TEST(Histogram, SingleValue) {
  Histogram h;
  h.record(42);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 42);
  EXPECT_EQ(h.max(), 42);
  EXPECT_EQ(h.percentile(0.5), 42);
  EXPECT_DOUBLE_EQ(h.mean(), 42.0);
}

TEST(Histogram, SmallValuesExact) {
  Histogram h;
  for (int i = 0; i < 64; ++i) h.record(i);
  EXPECT_EQ(h.percentile(0.0), 0);
  // Small values (< 64) land in exact buckets.
  EXPECT_EQ(h.percentile(1.0), 63);
}

TEST(Histogram, PercentileBoundedRelativeError) {
  Histogram h;
  for (int i = 1; i <= 100000; ++i) h.record(i);
  const auto p50 = static_cast<double>(h.percentile(0.50));
  const auto p99 = static_cast<double>(h.percentile(0.99));
  EXPECT_NEAR(p50, 50000.0, 50000.0 * 0.02);
  EXPECT_NEAR(p99, 99000.0, 99000.0 * 0.02);
}

TEST(Histogram, MeanAndStddev) {
  Histogram h;
  h.record(10);
  h.record(20);
  h.record(30);
  EXPECT_DOUBLE_EQ(h.mean(), 20.0);
  EXPECT_NEAR(h.stddev(), 8.1649, 0.001);
}

TEST(Histogram, NegativeClampsToZero) {
  Histogram h;
  h.record(-5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.percentile(1.0), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(Histogram, CdfIsMonotone) {
  Histogram h;
  for (int i = 0; i < 10000; ++i) h.record((i * 7919) % 100000);
  auto cdf = h.cdf();
  ASSERT_FALSE(cdf.empty());
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].first, cdf[i - 1].first);
    EXPECT_GE(cdf[i].second, cdf[i - 1].second);
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(Histogram, CdfThinningKeepsEnds) {
  Histogram h;
  for (int i = 0; i < 100000; ++i) h.record(i);
  auto cdf = h.cdf(10);
  EXPECT_LE(cdf.size(), 10u);
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(Histogram, MergeCombines) {
  Histogram a, b;
  a.record(10);
  b.record(1000);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 1000);
}

TEST(Histogram, RecordNWeights) {
  Histogram h;
  h.record_n(5, 100);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_EQ(h.percentile(0.5), 5);
}

TEST(Histogram, ResetClears) {
  Histogram h;
  h.record(5);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0);
}

TEST(Histogram, LargeValues) {
  Histogram h;
  h.record(1'000'000'000'000LL);
  EXPECT_EQ(h.count(), 1u);
  const double rel = std::abs(static_cast<double>(h.percentile(1.0)) - 1e12) / 1e12;
  EXPECT_LT(rel, 0.02);
}

TEST(Histogram, PercentileExtremesAreExact) {
  // q=0 and q=1 must return the exact recorded extremes, not the midpoint of
  // the log bucket they landed in.
  Histogram h;
  h.record(1000);
  h.record(1500);
  EXPECT_EQ(h.percentile(0.0), 1000);
  EXPECT_EQ(h.percentile(1.0), 1500);
}

TEST(Histogram, PercentileExtremesSingleValue) {
  Histogram h;
  h.record(777);
  EXPECT_EQ(h.percentile(0.0), 777);
  EXPECT_EQ(h.percentile(1.0), 777);
  EXPECT_EQ(h.percentile(0.5), h.percentile(0.5));  // well-defined in between
}

TEST(Histogram, ThinnedCdfPointsAreUnique) {
  Histogram h;
  for (int i = 0; i < 100000; ++i) h.record(i);
  auto cdf = h.cdf(10);
  ASSERT_GE(cdf.size(), 2u);
  EXPECT_LE(cdf.size(), 10u);
  // Strictly increasing x — in particular the final point must not be a
  // duplicate of the stride-sampled point before it.
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LT(cdf[i - 1].first, cdf[i].first) << "duplicate/unordered point at " << i;
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
}

TEST(Histogram, ThinnedCdfSinglePoint) {
  Histogram h;
  for (int i = 0; i < 1000; ++i) h.record(i);
  auto cdf = h.cdf(1);
  ASSERT_EQ(cdf.size(), 1u);
  EXPECT_DOUBLE_EQ(cdf[0].second, 1.0);  // the kept point is the last one
}

TEST(TimeSeries, BucketsByTime) {
  TimeSeries ts{sec(1)};
  ts.add(usec(500), 1);
  ts.add(msec(999), 1);
  ts.add(sec(1), 5);
  ts.add(sec(2) + 1, 2);
  EXPECT_DOUBLE_EQ(ts.bucket(0), 2);
  EXPECT_DOUBLE_EQ(ts.bucket(1), 5);
  EXPECT_DOUBLE_EQ(ts.bucket(2), 2);
  EXPECT_DOUBLE_EQ(ts.bucket(3), 0);
  EXPECT_DOUBLE_EQ(ts.total(), 9);
}

TEST(TimeSeries, RateNormalizesPerSecond) {
  TimeSeries ts{msec(500)};
  ts.add(0, 10);
  EXPECT_DOUBLE_EQ(ts.rate(0), 20.0);
}

TEST(TimeSeries, BucketStart) {
  TimeSeries ts{sec(2)};
  EXPECT_EQ(ts.bucket_start(3), sec(6));
}

TEST(TimeSeriesDeathTest, FarFutureTimeFailsLoudly) {
  // A corrupted clock (e.g. an unsigned underflow producing ~2^63 us) must
  // abort with a diagnostic, not resize the bucket vector to oblivion.
  TimeSeries ts{usec(1)};
  const Time absurd = static_cast<Time>(TimeSeries::kMaxBuckets) + sec(1);
  EXPECT_DEATH(ts.add(absurd, 1), "implausibly far");
}

TEST(Metrics, CountersDefaultZero) {
  Metrics m;
  EXPECT_EQ(m.counter("nope"), 0u);
  m.inc("a");
  m.inc("a", 4);
  EXPECT_EQ(m.counter("a"), 5u);
}

TEST(Metrics, HistogramsCreateOnUse) {
  Metrics m;
  EXPECT_EQ(m.find_histogram("lat"), nullptr);
  m.histogram("lat").record(7);
  ASSERT_NE(m.find_histogram("lat"), nullptr);
  EXPECT_EQ(m.find_histogram("lat")->count(), 1u);
}

TEST(Metrics, SeriesUseConfiguredWidth) {
  Metrics m{msec(100)};
  m.series("tput").add(msec(150), 1);
  EXPECT_DOUBLE_EQ(m.series("tput").bucket(1), 1);
}

TEST(Metrics, ResetClearsAll) {
  Metrics m;
  m.inc("a");
  m.histogram("h").record(1);
  m.series("s").add(0, 1);
  m.reset();
  EXPECT_EQ(m.counter("a"), 0u);
  EXPECT_EQ(m.find_histogram("h"), nullptr);
  EXPECT_EQ(m.find_series("s"), nullptr);
}

TEST(JsonWriter, ObjectsArraysAndCommas) {
  std::ostringstream os;
  JsonWriter w{os};
  w.begin_object();
  w.field("name", "run");
  w.field("n", std::uint64_t{3});
  w.key("xs");
  w.begin_array();
  w.value(std::int64_t{1});
  w.value(2.5);
  w.value(true);
  w.null();
  w.end_array();
  w.end_object();
  EXPECT_EQ(os.str(),
            "{\n  \"name\": \"run\",\n  \"n\": 3,\n  \"xs\": [\n    1,\n    2.5,\n"
            "    true,\n    null\n  ]\n}");
}

TEST(JsonWriter, EscapesStrings) {
  EXPECT_EQ(json_escaped("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(json_escaped(std::string_view{"\x01", 1}), "\\u0001");
  std::ostringstream os;
  JsonWriter w{os};
  w.begin_object();
  w.field("k\"ey", "v\nal");
  w.end_object();
  EXPECT_EQ(os.str(), "{\n  \"k\\\"ey\": \"v\\nal\"\n}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  std::ostringstream os;
  JsonWriter w{os};
  w.begin_array();
  w.value(std::numeric_limits<double>::quiet_NaN());
  w.value(std::numeric_limits<double>::infinity());
  w.end_array();
  EXPECT_EQ(os.str(), "[\n  null,\n  null\n]");
}

// The trace view of the event store: protocol-event instants, recorded while
// tracing is on.

std::vector<Instant> select(const SpanStore& s, InstantKind kind) {
  std::vector<Instant> out;
  for (const Instant& e : s.instants()) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

TEST(Trace, DisabledRecordsNothing) {
  SpanStore s;
  s.record(InstantKind::kConsult, 10);
  s.record(InstantKind::kFaultInject, 10, 0, 0, 0, "crash");  // marks are off too
  EXPECT_EQ(s.count(InstantKind::kConsult), 0u);
  EXPECT_TRUE(s.instants().empty());
}

TEST(Trace, CountsAndSelect) {
  SpanStore s;
  s.enable_instants(/*trace=*/true, /*marks=*/false);
  s.record(InstantKind::kConsult, 10, 1, 100);
  s.record(InstantKind::kRetry, 20, 1, 100, 1);
  s.record(InstantKind::kRetry, 30, 1, 100, 2);
  s.record(InstantKind::kFallback, 40, 1, 100, 2);
  s.record(InstantKind::kMark, 50, 0, 0, 0, "repartition #1");  // not a trace event
  EXPECT_EQ(s.count(InstantKind::kRetry), 2u);
  EXPECT_EQ(s.count(InstantKind::kFallback), 1u);
  EXPECT_EQ(s.count(InstantKind::kMark), 0u);
  EXPECT_EQ(s.instants().size(), 4u);
  auto retries = select(s, InstantKind::kRetry);
  ASSERT_EQ(retries.size(), 2u);
  EXPECT_EQ(retries[0].t, 20);
  EXPECT_EQ(retries[1].arg, 2);
}

TEST(Trace, CapacityDropsRecordsButKeepsCounts) {
  SpanStore s;
  s.enable();
  s.enable_instants(/*trace=*/true, /*marks=*/false);
  s.set_instant_capacity(2);
  for (int i = 0; i < 5; ++i) s.record(InstantKind::kAmcastDeliver, i);
  EXPECT_EQ(s.instants().size(), 2u);
  EXPECT_EQ(s.dropped_instants(), 3u);
  EXPECT_EQ(s.count(InstantKind::kAmcastDeliver), 5u);
  // Each kind has its own cap: a full instant list leaves spans untouched.
  s.record({.trace_id = 1, .phase = SpanPhase::kConsult, .start = 1, .end = 2});
  EXPECT_EQ(s.spans().size(), 1u);
  EXPECT_EQ(s.dropped(), 0u);
}

TEST(Trace, ClearKeepsEnabledFlag) {
  SpanStore s;
  s.enable_instants(/*trace=*/true, /*marks=*/true);
  s.record(InstantKind::kConsult, 1);
  s.clear();
  EXPECT_TRUE(s.tracing());
  EXPECT_TRUE(s.marking());
  EXPECT_TRUE(s.instants().empty());
  EXPECT_EQ(s.count(InstantKind::kConsult), 0u);
  s.record(InstantKind::kConsult, 2);
  EXPECT_EQ(s.count(InstantKind::kConsult), 1u);
}

TEST(Trace, WriteJsonlOneLinePerRecord) {
  SpanStore s;
  s.enable_instants(/*trace=*/true, /*marks=*/true);
  s.record(InstantKind::kMoveIssued, 5, 9, 42, 1);
  s.record(InstantKind::kMark, 6, 0, 0, 0, "repartition #1");  // marks-only view
  s.record(InstantKind::kMoveFailed, 6, 3, 42, 1);
  std::ostringstream os;
  write_trace_jsonl(os, s, "my \"run\"");
  const std::string out = os.str();
  std::size_t lines = 0;
  for (char c : out) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(out.find("\"event\":\"move_issued\""), std::string::npos);
  EXPECT_NE(out.find("\"event\":\"move_failed\""), std::string::npos);
  EXPECT_NE(out.find("\"run\":\"my \\\"run\\\"\""), std::string::npos);
}

// Guards the enum / to_string / sentinel triple: adding an InstantKind
// without a to_string case trips this (the static_assert in span.h catches a
// stale sentinel at compile time).
TEST(Trace, ToStringCoversEveryEvent) {
  std::set<std::string_view> names;
  for (std::size_t i = 0; i < kInstantKinds; ++i) {
    const std::string_view name = to_string(static_cast<InstantKind>(i));
    EXPECT_NE(name, "unknown") << "InstantKind " << i << " missing a to_string case";
    EXPECT_FALSE(name.empty());
    names.insert(name);
  }
  EXPECT_EQ(names.size(), kInstantKinds) << "duplicate InstantKind names";
}

TEST(Span, ToStringCoversEveryPhase) {
  std::set<std::string_view> names;
  for (std::size_t i = 0; i < kSpanPhases; ++i) {
    const std::string_view name = to_string(static_cast<SpanPhase>(i));
    EXPECT_NE(name, "unknown") << "SpanPhase " << i << " missing a to_string case";
    EXPECT_FALSE(name.empty());
    names.insert(name);
  }
  EXPECT_EQ(names.size(), kSpanPhases) << "duplicate SpanPhase names";
}

TEST(Span, DisabledStoreRecordsNothing) {
  SpanStore s;
  s.record({.trace_id = 1, .phase = SpanPhase::kConsult, .start = 10, .end = 20});
  EXPECT_TRUE(s.spans().empty());
  EXPECT_EQ(s.count(SpanPhase::kConsult), 0u);
  EXPECT_FALSE(s.has_phase_data());
}

TEST(Span, FoldControlsPhaseHistograms) {
  SpanStore s;
  s.enable();
  s.record({.trace_id = 1, .phase = SpanPhase::kConsult, .start = 10, .end = 25});
  s.record({.trace_id = 1, .phase = SpanPhase::kQueue, .start = 30, .end = 50},
           /*fold=*/false);
  // Both are counted and retained...
  EXPECT_EQ(s.count(SpanPhase::kConsult), 1u);
  EXPECT_EQ(s.count(SpanPhase::kQueue), 1u);
  ASSERT_EQ(s.spans().size(), 2u);
  EXPECT_TRUE(s.spans()[0].folded);
  EXPECT_FALSE(s.spans()[1].folded);
  // ...but only the folded one lands in the phase histograms.
  EXPECT_EQ(s.phase_histogram(SpanPhase::kConsult).count(), 1u);
  EXPECT_EQ(s.phase_histogram(SpanPhase::kConsult).max(), 15);
  EXPECT_EQ(s.phase_histogram(SpanPhase::kQueue).count(), 0u);
  EXPECT_TRUE(s.has_phase_data());
}

TEST(Span, CapacityDropsSpansButKeepsCounts) {
  SpanStore s;
  s.enable();
  s.set_capacity(2);
  for (int i = 0; i < 5; ++i) {
    s.record({.trace_id = 1, .phase = SpanPhase::kExecute,
              .start = Time{0}, .end = Time{10}});
  }
  EXPECT_EQ(s.spans().size(), 2u);
  EXPECT_EQ(s.dropped(), 3u);
  EXPECT_EQ(s.count(SpanPhase::kExecute), 5u);
  EXPECT_EQ(s.phase_histogram(SpanPhase::kExecute).count(), 5u);
}

TEST(Span, ClearKeepsEnabledCapacityAndNames) {
  SpanStore s;
  s.enable();
  s.set_group_name(GroupId{0}, "partition 0");
  s.record({.trace_id = 1, .phase = SpanPhase::kReply, .start = 1, .end = 2});
  s.clear();
  EXPECT_TRUE(s.enabled());
  EXPECT_TRUE(s.spans().empty());
  EXPECT_EQ(s.count(SpanPhase::kReply), 0u);
  EXPECT_FALSE(s.has_phase_data());
  EXPECT_EQ(s.group_names().at(0), "partition 0");
}

TEST(SpanQuery, TreeStructureAndSelection) {
  SpanStore s;
  s.enable();
  // Children first, root last (the real recording order: the root span is
  // recorded at command completion with a pre-allocated id).
  const std::uint64_t root_id = s.alloc_id();
  s.record({.trace_id = 7, .parent = root_id, .phase = SpanPhase::kConsult,
            .start = 10, .end = 30});
  s.record({.trace_id = 7, .parent = 0, .phase = SpanPhase::kAmcast,
            .start = 30, .end = 60},
           /*fold=*/false);  // parent 0: attaches to the root
  s.record({.trace_id = 7, .parent = root_id, .phase = SpanPhase::kConsult,
            .start = 5, .end = 9});
  s.record({.trace_id = 9, .phase = SpanPhase::kConsult, .start = 0, .end = 1});
  s.record({.trace_id = 7, .id = root_id, .phase = SpanPhase::kCommand,
            .start = 5, .end = 100});

  SpanQuery q{s};
  EXPECT_EQ(q.trace_ids(), (std::vector<std::uint64_t>{7, 9}));

  const Span* root = q.root(7);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->id, root_id);
  EXPECT_EQ(q.root(9), nullptr);   // no kCommand span
  EXPECT_EQ(q.root(42), nullptr);  // unknown trace

  // trace() and select() are ordered by (start, id).
  const auto all = q.trace(7);
  ASSERT_EQ(all.size(), 4u);
  EXPECT_EQ(all[0]->start, 5);
  const auto consults = q.select(7, SpanPhase::kConsult);
  ASSERT_EQ(consults.size(), 2u);
  EXPECT_EQ(consults[0]->start, 5);
  EXPECT_EQ(consults[1]->start, 10);
  EXPECT_EQ(q.count(7, SpanPhase::kFallback), 0u);

  // Explicit parents and parent-0 spans are both children of the root.
  EXPECT_EQ(q.children(7, root_id).size(), 3u);

  // Folded non-root spans only: the unfolded amcast view doesn't count.
  EXPECT_EQ(q.attributed_total(7), Duration{20 + 4});
}

TEST(Metrics, CounterHandlesAreStableAndShared) {
  Metrics m;
  Counter& h = m.counter_handle("client.ops");
  h.inc();
  h.inc(2);
  // The handle and the string API hit the same counter.
  EXPECT_EQ(m.counter("client.ops"), 3u);
  m.inc("client.ops");
  EXPECT_EQ(h.value(), 4u);
  // Re-interning returns the same object.
  EXPECT_EQ(&m.counter_handle("client.ops"), &h);
  // Creating other counters must not invalidate the handle (map nodes are
  // stable) — written through the old reference, read through a fresh lookup.
  for (int i = 0; i < 100; ++i) {
    std::string name = "c";  // built piecewise: "c" + to_string trips a GCC 12
    name += std::to_string(i);  // -Wrestrict false positive (PR105651)
    m.counter_handle(name);
  }
  h.inc();
  EXPECT_EQ(m.counter("client.ops"), 5u);
}

TEST(RunRecord, SerializesSyntheticMetrics) {
  RunRecord rec;
  rec.label = "case-a";
  rec.add_meta("partitions", "2");
  rec.metrics.inc("client.ops", 12);
  rec.metrics.histogram("lat").record(100);
  rec.metrics.histogram("lat").record(200);
  rec.metrics.series("tput").add(0, 3);
  rec.metrics.spans().enable_instants(/*trace=*/true, /*marks=*/false);
  rec.metrics.spans().record(InstantKind::kConsult, 1);
  std::ostringstream os;
  write_run_records(os, "unit", {rec});
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\": \"dssmr.run_record.v7\""), std::string::npos);
  EXPECT_NE(json.find("\"experiment\": \"unit\""), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"case-a\""), std::string::npos);
  EXPECT_NE(json.find("\"partitions\": \"2\""), std::string::npos);
  EXPECT_NE(json.find("\"client.ops\": 12"), std::string::npos);
  EXPECT_NE(json.find("\"consult\": 1"), std::string::npos);
  // Balanced braces/brackets — a cheap structural sanity check.
  std::int64_t depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

}  // namespace
}  // namespace dssmr::stats
