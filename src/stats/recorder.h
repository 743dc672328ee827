// Flight-recorder telemetry: windowed, time-resolved views of a run.
//
// End-of-run aggregates (counters, histograms) hide *when* things happened —
// convergence after a repartitioning, imbalance while a partition is hot,
// degradation inside a fault window. The Recorder fills that gap with three
// windowed facilities, all bucketed on one configurable virtual-time
// interval:
//
//  * gauges — callbacks registered at deployment build time (queue depths,
//    in-flight messages, cache occupancy, ...) sampled on every tick of the
//    harness's telemetry timer chain;
//  * per-partition heat — per-bucket command counts, cross-partition command
//    counts and move churn, recorded at the same leader-gated sites as the
//    end-of-run `server.*_partition_commands` counters so the per-bucket
//    sums tile those totals exactly;
//  * windowed latency — one compact log-bucketed Histogram per bucket,
//    recorded at the same site as `client.latency_us`, so merged windows
//    reproduce the end-of-run histogram and each window answers p50/p99.
//
// The run record's timeline marks (fault-window edges, repartitionings) are
// the labelled instants of the deployment's event store (stats/span.h),
// recorded while telemetry is on.
//
// Disabled mode is zero-cost by construction: every record_* entry point
// checks one bool and returns, nothing is ever allocated, and the harness
// never schedules the tick chain — a telemetry-off run's virtual-time
// schedule and run record are byte-identical to a build without telemetry.
//
// Copying a Recorder (run records snapshot the whole Metrics registry)
// keeps all sampled data but drops the gauge callbacks: they close over
// deployment objects that die long before the RunRecord does in sweeps.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.h"
#include "stats/histogram.h"

namespace dssmr::stats {

class Recorder {
 public:
  using GaugeFn = std::function<double()>;

  /// Hard cap on windowed-bucket growth, same rationale as
  /// TimeSeries::kMaxBuckets: fail loudly on implausible times instead of
  /// letting a clock bug resize vectors to oblivion.
  static constexpr std::size_t kMaxBuckets = 1u << 20;

  /// One sampled gauge: name, the callback (empty after copying), and one
  /// sampled value per tick.
  struct Gauge {
    std::string name;
    GaugeFn fn;  // dropped by copy
    std::vector<double> values;
  };

  /// Windowed heat for one partition. Buckets are interval()-wide; index i
  /// covers [i*interval, (i+1)*interval). Vectors grow lazily and may have
  /// different lengths (trailing zeros are implicit).
  struct PartitionHeat {
    std::vector<std::uint64_t> commands;  // all delivered commands
    std::vector<std::uint64_t> multi;     // cross-partition subset
    std::vector<std::uint64_t> moves;     // move churn (source+dest events)
    std::uint64_t total_commands = 0;
    std::uint64_t total_multi = 0;
    std::uint64_t total_moves = 0;
  };

  Recorder() = default;

  Recorder(const Recorder& other) { copy_from(other); }
  Recorder& operator=(const Recorder& other) {
    if (this != &other) copy_from(other);
    return *this;
  }
  Recorder(Recorder&&) = default;
  Recorder& operator=(Recorder&&) = default;

  /// Arms the recorder: `interval` is the bucket width for heat/latency
  /// windows and the cadence the harness ticks gauges at; `partitions` sizes
  /// the heat table. Until enable() is called every entry point is a
  /// one-branch no-op.
  void enable(Duration interval, std::size_t partitions);

  bool enabled() const { return enabled_; }
  Duration interval() const { return interval_; }

  /// Registers a gauge sampled on every tick. Call before the first tick so
  /// all gauges have one value per tick.
  void register_gauge(std::string name, GaugeFn fn);

  /// Samples every registered gauge at virtual time `t`. Driven by the
  /// harness's telemetry timer chain.
  void tick(Time t);

  /// A command delivered on `partition` at time `t`; `multi` marks
  /// cross-partition commands. Call from the same leader-gated site as the
  /// `server.*_partition_commands` counters so windowed sums tile them.
  void record_command(Time t, std::size_t partition, bool multi);

  /// Move churn touching `partition` (as source or destination) at `t`.
  void record_move(Time t, std::size_t partition);

  /// A completed command's end-to-end latency at completion time `t`. Call
  /// from the same site as `client.latency_us` so merged windows reproduce
  /// the end-of-run histogram.
  void record_latency(Time t, std::int64_t latency_us);

  // -- read side (serialization, dashboards, tests) --------------------------

  const std::vector<Time>& tick_times() const { return ticks_; }
  const std::vector<Gauge>& gauges() const { return gauges_; }
  const std::vector<PartitionHeat>& heat() const { return heat_; }
  const std::vector<Histogram>& latency_windows() const { return latency_windows_; }

  /// All latency windows merged into one histogram (equals the end-of-run
  /// latency histogram when both record at the same site).
  Histogram merged_latency() const;

  void reset();

 private:
  void copy_from(const Recorder& other);
  std::size_t bucket_of(Time t) const;

  bool enabled_ = false;
  Duration interval_ = 0;
  std::vector<Time> ticks_;
  std::vector<Gauge> gauges_;
  std::vector<PartitionHeat> heat_;
  std::vector<Histogram> latency_windows_;
};

}  // namespace dssmr::stats
