// Machine-readable per-run records (schema "dssmr.run_record.v9").
//
// Every bench binary can serialize its runs to JSON so the repo's perf
// trajectory is diffable: counters, histogram summaries (count/min/max/mean/
// p50/p95/p99 + a thinned CDF), every time series, the trace event counts,
// span-phase latency histograms (the `phases` section, present when span
// tracing ran — v2's addition, see stats/span.h), a `faults` section
// summarizing nemesis fault injection (present when a run carried `faults.*`
// metrics — v3's addition, see fault/nemesis.h), a `telemetry` section with
// windowed flight-recorder data — gauge samples, per-partition heat,
// windowed latency percentiles and timeline marks (present when the run's
// Recorder was enabled — v4's addition, see stats/recorder.h), a `batching`
// section summarizing submission batching — flush counts by trigger, entry
// totals and the flush-size histogram (present when a run carried `batch.*`
// metrics — v5's addition, see multicast/batcher.h), a `locality` section
// summarizing prophecy prefetch — entries sent, installed and hit (present
// when a run carried `locality.*` metrics — v6's addition, see
// core/client_proxy.h), an `elasticity` section summarizing live
// repartitioning — partitions added/retired, rebalance move and variable
// totals, and the rebalance chunk-size histogram (present when a run carried
// `elastic.*` metrics, i.e. a nemesis plan added or retired a partition —
// v7's addition, see fault/nemesis.h) — and free-form run metadata (strategy, partitions, seed,
// ...). v8 only removed keys of deleted features. The format is documented
// in docs/schema.md and EXPERIMENTS.md; CI asserts one of these files parses
// and carries a nonzero client.ops.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "stats/metrics.h"

namespace dssmr::stats {

inline constexpr std::string_view kRunRecordSchema = "dssmr.run_record.v9";

struct RunRecord {
  std::string label;
  /// Ordered key/value metadata (experiment knobs: strategy, partitions, ...).
  std::vector<std::pair<std::string, std::string>> meta;
  /// Snapshot of the deployment's metrics at the end of the run.
  Metrics metrics;

  void add_meta(std::string key, std::string value) {
    meta.emplace_back(std::move(key), std::move(value));
  }
};

/// Writes `{"schema": ..., "experiment": ..., "runs": [...]}` to `os`.
void write_run_records(std::ostream& os, std::string_view experiment,
                       const std::vector<RunRecord>& runs);

}  // namespace dssmr::stats
