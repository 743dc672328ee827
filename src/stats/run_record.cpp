#include "stats/run_record.h"

#include <algorithm>
#include <ostream>

#include "stats/json_writer.h"

namespace dssmr::stats {
namespace {

void write_histogram(JsonWriter& w, const Histogram& h) {
  w.begin_object();
  w.field("count", h.count());
  w.field("min", h.min());
  w.field("max", h.max());
  w.field("mean", h.mean());
  w.field("stddev", h.stddev());
  w.field("p50", h.percentile(0.50));
  w.field("p95", h.percentile(0.95));
  w.field("p99", h.percentile(0.99));
  w.key("cdf");
  w.begin_array();
  for (const auto& [value, fraction] : h.cdf(64)) {
    w.begin_array();
    w.value(value);
    w.value(fraction);
    w.end_array();
  }
  w.end_array();
  w.end_object();
}

void write_series(JsonWriter& w, const TimeSeries& s) {
  w.begin_object();
  w.field("bucket_width_us", static_cast<std::int64_t>(s.bucket_width()));
  w.field("total", s.total());
  w.key("values");
  w.begin_array();
  for (std::size_t i = 0; i < s.bucket_count(); ++i) w.value(s.bucket(i));
  w.end_array();
  w.end_object();
}

// v4: flight-recorder telemetry. Gauge samples are arrays aligned with
// `ticks`; heat buckets and latency windows are `interval_us` wide (bucket i
// covers [i*interval, (i+1)*interval)); trailing zero buckets are implicit.
// Per-partition `commands`/`multi` sum exactly to the end-of-run
// `server.single_partition_commands` + `server.multi_partition_commands`
// counters because both record at the same leader-gated sites.
// `marks` is the event store's telemetry view: its labelled instants.
void write_telemetry(JsonWriter& w, const Recorder& r, const SpanStore& events) {
  w.begin_object();
  w.field("interval_us", static_cast<std::int64_t>(r.interval()));
  w.key("ticks");
  w.begin_array();
  for (Time t : r.tick_times()) w.value(static_cast<std::int64_t>(t));
  w.end_array();
  w.key("gauges");
  w.begin_object();
  for (const Recorder::Gauge& g : r.gauges()) {
    w.key(g.name);
    w.begin_array();
    for (double v : g.values) w.value(v);
    w.end_array();
  }
  w.end_object();
  w.key("partitions");
  w.begin_array();
  for (const Recorder::PartitionHeat& h : r.heat()) {
    w.begin_object();
    w.field("total_commands", h.total_commands);
    w.field("total_multi", h.total_multi);
    w.field("total_moves", h.total_moves);
    const auto write_buckets = [&w](const char* name,
                                    const std::vector<std::uint64_t>& buckets) {
      w.key(name);
      w.begin_array();
      for (std::uint64_t v : buckets) w.value(v);
      w.end_array();
    };
    write_buckets("commands", h.commands);
    write_buckets("multi", h.multi);
    write_buckets("moves", h.moves);
    w.end_object();
  }
  w.end_array();
  // Deployment-wide locality per bucket: single-partition fraction of all
  // commands (1.0 = perfectly local; null when the bucket saw no commands).
  std::size_t heat_buckets = 0;
  for (const Recorder::PartitionHeat& h : r.heat()) {
    heat_buckets = std::max(heat_buckets, h.commands.size());
  }
  w.key("locality");
  w.begin_array();
  for (std::size_t i = 0; i < heat_buckets; ++i) {
    std::uint64_t commands = 0;
    std::uint64_t multi = 0;
    for (const Recorder::PartitionHeat& h : r.heat()) {
      commands += i < h.commands.size() ? h.commands[i] : 0;
      multi += i < h.multi.size() ? h.multi[i] : 0;
    }
    if (commands == 0) {
      w.null();
    } else {
      w.value(1.0 - static_cast<double>(multi) / static_cast<double>(commands));
    }
  }
  w.end_array();
  w.key("latency_windows");
  w.begin_array();
  for (const Histogram& h : r.latency_windows()) {
    w.begin_object();
    w.field("count", h.count());
    w.field("mean", h.mean());
    w.field("p50", h.percentile(0.50));
    w.field("p99", h.percentile(0.99));
    w.end_object();
  }
  w.end_array();
  w.key("marks");
  w.begin_array();
  for (const Instant& e : events.instants()) {
    if (!events.is_mark(e)) continue;
    w.begin_object();
    w.field("t_us", static_cast<std::int64_t>(e.t));
    w.field("kind", mark_kind(e.kind));
    w.field("label", events.label(e));
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

void write_spans_summary(JsonWriter& w, const SpanStore& s) {
  w.begin_object();
  w.field("enabled", s.enabled());
  w.field("recorded", s.spans().size());
  w.field("dropped", s.dropped());
  w.end_object();
}

// The `trace` summary is a view of the event store's protocol-event
// instants: the retained ones, the dropped ones and per-kind totals.
void write_trace_summary(JsonWriter& w, const SpanStore& events) {
  std::uint64_t recorded = 0;
  for (const Instant& e : events.instants()) recorded += events.in_trace(e) ? 1 : 0;
  w.begin_object();
  w.field("enabled", events.tracing());
  w.field("recorded", recorded);
  w.field("dropped", events.dropped_instants());
  w.key("events");
  w.begin_object();
  for (std::size_t i = 0; i < kInstantKinds; ++i) {
    const auto k = static_cast<InstantKind>(i);
    if (events.count(k) > 0) w.field(to_string(k), events.count(k));
  }
  w.end_object();
  w.end_object();
}

/// A summary section built from one counter prefix: present only when some
/// counter carries the prefix; re-emits those counters with the prefix
/// stripped, then each listed `<prefix><histogram>` that saw data.
struct PrefixSection {
  std::string_view key;
  std::string_view prefix;
  std::vector<std::string_view> histograms;
};

void write_prefix_section(JsonWriter& w, const Metrics& m, const PrefixSection& s) {
  bool any = false;
  for (const auto& [name, c] : m.counters()) {
    if (!name.starts_with(s.prefix)) continue;
    if (!any) {
      w.key(s.key);
      w.begin_object();
      any = true;
    }
    w.field(std::string_view(name).substr(s.prefix.size()), c.value());
  }
  if (!any) return;
  for (std::string_view hist : s.histograms) {
    const Histogram* h = m.find_histogram(std::string(s.prefix) + std::string(hist));
    if (h == nullptr || h->count() == 0) continue;
    w.key(hist);
    write_histogram(w, *h);
  }
  w.end_object();
}

// v3 `faults` (a nemesis ran), then — after telemetry — v5 `batching`, v6
// `locality` (prefetch, cache repair or move coalescing was on) and v7
// `elasticity` (a ScalePlan was armed): one stable place per feature for
// its tooling.
const PrefixSection kFaultsSection{"faults", "faults.", {"time_to_new_leader_us"}};
const PrefixSection kFeatureSections[] = {
    {"batching", "batch.", {"size_entries"}},
    {"locality", "locality.", {"bulk_entries"}},
    {"elasticity", "elastic.", {"drain_time_us", "rebalance_entries"}},
};

}  // namespace

void write_run_records(std::ostream& os, std::string_view experiment,
                       const std::vector<RunRecord>& runs) {
  JsonWriter w(os);
  w.begin_object();
  w.field("schema", kRunRecordSchema);
  w.field("experiment", experiment);
  w.key("runs");
  w.begin_array();
  for (const RunRecord& run : runs) {
    w.begin_object();
    w.field("label", run.label);
    w.key("meta");
    w.begin_object();
    for (const auto& [k, v] : run.meta) w.field(k, v);
    w.end_object();
    w.key("counters");
    w.begin_object();
    for (const auto& [name, c] : run.metrics.counters()) w.field(name, c.value());
    w.end_object();
    w.key("histograms");
    w.begin_object();
    for (const auto& [name, h] : run.metrics.histograms()) {
      w.key(name);
      write_histogram(w, h);
    }
    w.end_object();
    w.key("series");
    w.begin_object();
    for (const auto& [name, s] : run.metrics.all_series()) {
      w.key(name);
      write_series(w, s);
    }
    w.end_object();
    // v2: per-phase latency histograms from the span store. The client
    // attributes every microsecond of a command to exactly one phase, so the
    // per-phase totals (mean * count) sum to the kCommand ("command") total.
    const SpanStore& spans = run.metrics.spans();
    if (spans.has_phase_data()) {
      w.key("phases");
      w.begin_object();
      for (std::size_t i = 0; i < kSpanPhases; ++i) {
        const auto p = static_cast<SpanPhase>(i);
        const Histogram& h = spans.phase_histogram(p);
        if (h.count() == 0) continue;
        w.key(to_string(p));
        write_histogram(w, h);
      }
      w.end_object();
    }
    write_prefix_section(w, run.metrics, kFaultsSection);
    // v4: flight-recorder telemetry, present only when the run enabled the
    // Recorder (--telemetry in the benches). Absent otherwise, keeping
    // telemetry-off records identical to pre-telemetry output.
    if (run.metrics.recorder().enabled()) {
      w.key("telemetry");
      write_telemetry(w, run.metrics.recorder(), spans);
    }
    for (const PrefixSection& section : kFeatureSections) {
      write_prefix_section(w, run.metrics, section);
    }
    w.key("spans");
    write_spans_summary(w, spans);
    w.key("trace");
    write_trace_summary(w, spans);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

}  // namespace dssmr::stats
