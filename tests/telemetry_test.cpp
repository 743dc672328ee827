// Flight-recorder telemetry tests: Recorder unit behavior, run-record v4
// round-trip, windowed/end-of-run tiling guarantees, and the zero-cost
// promise (telemetry off leaves run records byte-identical and telemetry on
// leaves every counter untouched).
#include "stats/recorder.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.h"
#include "stats/run_record.h"
#include "stats/span_export.h"
#include "testing/tiny_json.h"

namespace dssmr::stats {
namespace {

// ---- Recorder unit tests ----------------------------------------------------

TEST(Recorder, DisabledEntryPointsAreNoOps) {
  Recorder r;
  EXPECT_FALSE(r.enabled());
  r.record_command(msec(5), 0, false);
  r.record_move(msec(5), 1);
  r.record_latency(msec(5), 123);
  r.tick(msec(5));
  EXPECT_TRUE(r.heat().empty());
  EXPECT_TRUE(r.latency_windows().empty());
  EXPECT_TRUE(r.tick_times().empty());
}

// ---- Timeline marks: labelled instants in the event store --------------------

TEST(Marks, RecordedOnlyWhileMarking) {
  SpanStore s;
  s.record(InstantKind::kMark, msec(5), 0, 0, 0, "ignored");
  EXPECT_TRUE(s.instants().empty());

  s.enable_instants(/*trace=*/false, /*marks=*/true);
  s.record(InstantKind::kConsult, msec(6));  // protocol event, tracing off
  s.record(InstantKind::kFaultInject, msec(7), 3, 0, 0, "crash pid=3");
  ASSERT_EQ(s.instants().size(), 1u);
  EXPECT_TRUE(s.is_mark(s.instants()[0]));
  EXPECT_FALSE(s.in_trace(s.instants()[0]));
  // Marks are not part of the trace view's per-kind totals.
  EXPECT_EQ(s.count(InstantKind::kFaultInject), 0u);
}

TEST(Marks, CopyKeepsLabelsAndKinds) {
  SpanStore s;
  s.enable_instants(/*trace=*/false, /*marks=*/true);
  s.record(InstantKind::kFaultInject, msec(20), 0, 0, 0, "crash");
  s.record(InstantKind::kFaultRecover, msec(30), 0, 0, 0, "recover");
  s.record(InstantKind::kMark, msec(40), 0, 0, 0, "repartition #1");

  const SpanStore copy = s;  // what RunRecord snapshotting does
  ASSERT_EQ(copy.instants().size(), 3u);
  EXPECT_EQ(copy.label(copy.instants()[0]), "crash");
  EXPECT_EQ(copy.label(copy.instants()[2]), "repartition #1");
  EXPECT_EQ(mark_kind(copy.instants()[0].kind), "fault_begin");
  EXPECT_EQ(mark_kind(copy.instants()[1].kind), "fault_end");
  EXPECT_EQ(mark_kind(copy.instants()[2].kind), "event");
}

TEST(Recorder, HeatBucketsCommandsByIntervalAndPartition) {
  Recorder r;
  r.enable(msec(100), 2);
  r.record_command(msec(10), 0, false);   // bucket 0, single
  r.record_command(msec(150), 0, true);   // bucket 1, multi
  r.record_command(msec(150), 1, false);  // bucket 1, partition 1
  r.record_command(msec(350), 0, false);  // bucket 3 (bucket 2 stays implicit)
  r.record_move(msec(250), 1);            // bucket 2

  ASSERT_EQ(r.heat().size(), 2u);
  const Recorder::PartitionHeat& p0 = r.heat()[0];
  EXPECT_EQ(p0.total_commands, 3u);
  EXPECT_EQ(p0.total_multi, 1u);
  ASSERT_EQ(p0.commands.size(), 4u);
  EXPECT_EQ(p0.commands[0], 1u);
  EXPECT_EQ(p0.commands[1], 1u);
  EXPECT_EQ(p0.commands[2], 0u);
  EXPECT_EQ(p0.commands[3], 1u);
  ASSERT_EQ(p0.multi.size(), 2u);
  EXPECT_EQ(p0.multi[1], 1u);

  const Recorder::PartitionHeat& p1 = r.heat()[1];
  EXPECT_EQ(p1.total_commands, 1u);
  EXPECT_EQ(p1.total_moves, 1u);
  ASSERT_EQ(p1.moves.size(), 3u);
  EXPECT_EQ(p1.moves[2], 1u);

  // Per-bucket sums tile the totals.
  std::uint64_t sum = 0;
  for (std::uint64_t v : p0.commands) sum += v;
  EXPECT_EQ(sum, p0.total_commands);
}

TEST(Recorder, MergedLatencyWindowsEqualOneBigHistogram) {
  Recorder r;
  r.enable(msec(50), 1);
  Histogram reference;
  // Latencies spread over several windows, spanning histogram buckets.
  for (int i = 1; i <= 200; ++i) {
    const std::int64_t lat = 17 * i;
    r.record_latency(msec(i), lat);
    reference.record(lat);
  }
  EXPECT_GT(r.latency_windows().size(), 1u);
  const Histogram merged = r.merged_latency();
  EXPECT_EQ(merged.count(), reference.count());
  EXPECT_EQ(merged.min(), reference.min());
  EXPECT_EQ(merged.max(), reference.max());
  EXPECT_EQ(merged.percentile(0.50), reference.percentile(0.50));
  EXPECT_EQ(merged.percentile(0.99), reference.percentile(0.99));
  EXPECT_DOUBLE_EQ(merged.mean(), reference.mean());
}

TEST(Recorder, GaugesSampleOncePerTick) {
  Recorder r;
  r.enable(msec(100), 1);
  double x = 1.0;
  r.register_gauge("x", [&x] { return x; });
  r.tick(msec(100));
  x = 2.5;
  r.tick(msec(200));
  ASSERT_EQ(r.tick_times().size(), 2u);
  ASSERT_EQ(r.gauges().size(), 1u);
  ASSERT_EQ(r.gauges()[0].values.size(), 2u);
  EXPECT_DOUBLE_EQ(r.gauges()[0].values[0], 1.0);
  EXPECT_DOUBLE_EQ(r.gauges()[0].values[1], 2.5);
}

TEST(Recorder, CopyKeepsDataDropsCallbacks) {
  Recorder r;
  r.enable(msec(100), 1);
  r.register_gauge("g", [] { return 7.0; });
  r.tick(msec(100));
  r.record_command(msec(10), 0, false);

  const Recorder copy = r;  // what RunRecord snapshotting does
  EXPECT_TRUE(copy.enabled());
  ASSERT_EQ(copy.gauges().size(), 1u);
  EXPECT_FALSE(static_cast<bool>(copy.gauges()[0].fn));
  ASSERT_EQ(copy.gauges()[0].values.size(), 1u);
  EXPECT_DOUBLE_EQ(copy.gauges()[0].values[0], 7.0);
  EXPECT_EQ(copy.heat()[0].total_commands, 1u);
}

TEST(RecorderDeathTest, FarFutureTimeFailsLoudly) {
  Recorder r;
  r.enable(usec(1), 1);
  const Time absurd = static_cast<Time>(Recorder::kMaxBuckets) + sec(10);
  EXPECT_DEATH(r.record_command(absurd, 0, false), "exceeds kMaxBuckets");
}

// ---- End-to-end: run records, tiling, zero-cost off -------------------------

harness::ChirperRunConfig tiny_cfg() {
  harness::ChirperRunConfig cfg;
  cfg.strategy = core::Strategy::kDssmr;
  cfg.partitions = 2;
  cfg.clients_per_partition = 3;
  cfg.graph = {.n = 300, .m = 2, .p_triad = 0.8};
  cfg.workload.mix = workload::mixes::kPostOnly;
  cfg.warmup = msec(600);
  cfg.measure = sec(1);
  cfg.seed = 5;
  return cfg;
}

std::string record_json(const harness::ChirperRunConfig& cfg,
                        const harness::RunResult& r) {
  std::vector<RunRecord> runs;
  runs.push_back(harness::make_run_record(cfg, r, "telemetry_test"));
  std::ostringstream os;
  write_run_records(os, "telemetry_test", runs);
  return os.str();
}

TEST(Telemetry, RunRecordV4RoundTripsWithTelemetrySection) {
  auto cfg = tiny_cfg();
  cfg.telemetry = true;
  cfg.telemetry_interval = msec(100);
  cfg.nemesis = "leader-kill-recover";  // fault marks should land on the timeline
  const auto r = harness::run_chirper(cfg);

  const testing::JsonValue doc = testing::JsonParser::parse(record_json(cfg, r));
  EXPECT_EQ(doc.at("schema").str, "dssmr.run_record.v7");
  const testing::JsonValue& run = doc.at("runs").array.at(0);
  EXPECT_EQ(run.at("meta").at("telemetry").str, "on");
  ASSERT_TRUE(run.has("telemetry"));
  const testing::JsonValue& tel = run.at("telemetry");

  EXPECT_EQ(tel.at("interval_us").as_int(), static_cast<std::int64_t>(msec(100)));

  // Gauges: non-empty, every value array aligned with the tick array.
  const std::size_t ticks = tel.at("ticks").array.size();
  EXPECT_GT(ticks, 5u);
  const auto& gauges = tel.at("gauges").object;
  EXPECT_GE(gauges.size(), 8u);
  for (const auto& [name, values] : gauges) {
    EXPECT_EQ(values.array.size(), ticks) << "gauge " << name;
  }
  EXPECT_TRUE(gauges.contains("queue_depth.p0"));
  EXPECT_TRUE(gauges.contains("net.in_flight"));
  EXPECT_TRUE(gauges.contains("oracle.mapped_vars"));

  // Partition heat: one entry per partition, buckets tile the totals, and the
  // totals tile the end-of-run counters (same leader-gated record sites).
  const auto& partitions = tel.at("partitions").array;
  ASSERT_EQ(partitions.size(), cfg.partitions);
  std::uint64_t all_commands = 0;
  std::uint64_t all_multi = 0;
  for (const testing::JsonValue& p : partitions) {
    std::uint64_t sum = 0;
    for (const testing::JsonValue& v : p.at("commands").array) {
      sum += static_cast<std::uint64_t>(v.as_int());
    }
    EXPECT_EQ(sum, static_cast<std::uint64_t>(p.at("total_commands").as_int()));
    all_commands += sum;
    all_multi += static_cast<std::uint64_t>(p.at("total_multi").as_int());
  }
  EXPECT_EQ(all_commands, r.counter("server.single_partition_commands") +
                              r.counter("server.multi_partition_commands"));
  EXPECT_EQ(all_multi, r.counter("server.multi_partition_commands"));

  // Latency windows answer per-window percentiles.
  const auto& windows = tel.at("latency_windows").array;
  EXPECT_GT(windows.size(), 5u);
  bool any_counted = false;
  for (const testing::JsonValue& wnd : windows) {
    if (wnd.at("count").as_int() > 0) {
      any_counted = true;
      EXPECT_GT(wnd.at("p99").as_int(), 0);
    }
  }
  EXPECT_TRUE(any_counted);

  // The nemesis annotated the timeline with a fault window.
  bool fault_begin = false;
  for (const testing::JsonValue& m : tel.at("marks").array) {
    if (m.at("kind").str == "fault_begin") fault_begin = true;
  }
  EXPECT_TRUE(fault_begin);

  // Locality per bucket stays a fraction in [0, 1] when present.
  for (const testing::JsonValue& l : tel.at("locality").array) {
    if (l.kind == testing::JsonValue::Kind::kNull) continue;
    EXPECT_GE(l.number, 0.0);
    EXPECT_LE(l.number, 1.0);
  }
}

// One event store: each nemesis fault edge is a single instant, so with both
// views on every fault_inject/fault_recover in the trace view pairs 1:1 with a
// fault_begin/fault_end mark at the same virtual time.
TEST(Telemetry, FaultInstantsPairWithFaultMarks) {
  auto cfg = tiny_cfg();
  cfg.trace = true;
  cfg.telemetry = true;
  cfg.nemesis = "leader-kill-recover";
  const auto r = harness::run_chirper(cfg);

  const testing::JsonValue doc = testing::JsonParser::parse(record_json(cfg, r));
  const testing::JsonValue& run = doc.at("runs").array.at(0);
  std::vector<std::pair<std::string, std::int64_t>> marks;
  for (const testing::JsonValue& m : run.at("telemetry").at("marks").array) {
    if (m.at("kind").str != "event") marks.emplace_back(m.at("kind").str, m.at("t_us").as_int());
  }
  std::ostringstream jsonl;
  write_trace_jsonl(jsonl, r.metrics.spans());
  std::vector<std::pair<std::string, std::int64_t>> faults;
  std::istringstream lines(jsonl.str());
  for (std::string line; std::getline(lines, line);) {
    const testing::JsonValue e = testing::JsonParser::parse(line);
    const std::string& event = e.at("event").str;
    if (event == "fault_inject") faults.emplace_back("fault_begin", e.at("t").as_int());
    if (event == "fault_recover") faults.emplace_back("fault_end", e.at("t").as_int());
  }
  EXPECT_FALSE(faults.empty());
  EXPECT_EQ(faults, marks);
  const testing::JsonValue& summary = run.at("trace").at("events");
  EXPECT_EQ(static_cast<std::size_t>(summary.at("fault_inject").as_int() +
                                     summary.at("fault_recover").as_int()),
            faults.size());
}

TEST(Telemetry, MergedLatencyWindowsTileEndOfRunHistogram) {
  auto cfg = tiny_cfg();
  cfg.telemetry = true;
  const auto r = harness::run_chirper(cfg);
  const Recorder& rec = r.metrics.recorder();
  ASSERT_TRUE(rec.enabled());
  const Histogram* end_of_run = r.metrics.find_histogram("client.latency_us");
  ASSERT_NE(end_of_run, nullptr);
  const Histogram merged = rec.merged_latency();
  EXPECT_EQ(merged.count(), end_of_run->count());
  EXPECT_EQ(merged.percentile(0.50), end_of_run->percentile(0.50));
  EXPECT_EQ(merged.percentile(0.99), end_of_run->percentile(0.99));
  EXPECT_DOUBLE_EQ(merged.mean(), end_of_run->mean());
}

TEST(Telemetry, OffRunsAreByteIdenticalAcrossRepeats) {
  auto cfg = tiny_cfg();
  ASSERT_FALSE(cfg.telemetry);
  const std::string a = record_json(cfg, harness::run_chirper(cfg));
  const std::string b = record_json(cfg, harness::run_chirper(cfg));
  EXPECT_EQ(a, b);
  // The meta block says `"telemetry": "off"`; the *section* (an object) must
  // be absent.
  EXPECT_EQ(a.find("\"telemetry\": {"), std::string::npos)
      << "telemetry-off records must not carry a telemetry section";
}

TEST(Telemetry, EnablingTelemetryChangesNoCounters) {
  auto off_cfg = tiny_cfg();
  auto on_cfg = tiny_cfg();
  on_cfg.telemetry = true;
  const auto off = harness::run_chirper(off_cfg);
  const auto on = harness::run_chirper(on_cfg);
  EXPECT_EQ(off.ok, on.ok);
  EXPECT_EQ(off.nok, on.nok);
  ASSERT_EQ(off.counters.size(), on.counters.size());
  for (const auto& [name, value] : off.counters) {
    EXPECT_EQ(on.counter(name), value) << "counter " << name;
  }
}

}  // namespace
}  // namespace dssmr::stats
