// Flight-recorder telemetry: windowed, time-resolved views of a run.
//
// End-of-run aggregates (counters, histograms) hide *when* things happened —
// convergence after a repartitioning, imbalance while a partition is hot,
// degradation inside a fault window. The Recorder fills that gap with three
// kinds of windowed data, all on one virtual-time interval:
//
//  * gauges — one value per tick for each named gauge. The deployment owns
//    what is sampled (queue depths, in-flight messages, cache occupancy, ...)
//    and its telemetry timer chain hands each tick's samples to tick();
//  * per-partition heat — per-window command counts, cross-partition command
//    counts and move churn, recorded at the same leader-gated sites as the
//    end-of-run `server.*_partition_commands` / `server.moves_*` counters so
//    the per-window sums tile those totals exactly;
//  * windowed latency — one compact log-bucketed Histogram per window,
//    recorded at the same site as `client.latency_us`, so merged windows
//    reproduce the end-of-run histogram and each window answers p50/p99.
//
// Heat and latency bucket through stats::Windows (stats/timeseries.h). The
// run record's timeline marks (fault-window edges, repartitionings) are the
// labelled instants of the deployment's event store (stats/span.h),
// recorded while telemetry is on.
//
// Disabled mode is zero-cost by construction: every record_* entry point
// checks enabled() and returns, nothing is ever allocated, and the harness
// never schedules the tick chain — a telemetry-off run's virtual-time
// schedule and run record are byte-identical to a build without telemetry.
//
// A Recorder is plain data, so copying one (run records snapshot the whole
// Metrics registry) keeps every sample.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "stats/histogram.h"
#include "stats/timeseries.h"

namespace dssmr::stats {

class Recorder {
 public:
  /// One gauge: its name and one sampled value per tick.
  struct Gauge {
    std::string name;
    std::vector<double> values;
  };

  /// Windowed heat for one partition, interval()-wide windows. Each series
  /// grows on its own, so they may have different lengths (trailing zeros
  /// are implicit).
  struct PartitionHeat {
    explicit PartitionHeat(Duration interval)
        : commands(interval), multi(interval), moves(interval) {}

    Windows<std::uint64_t> commands;  // all delivered commands
    Windows<std::uint64_t> multi;     // cross-partition subset
    Windows<std::uint64_t> moves;     // move churn (source+dest events)
  };

  /// Arms the recorder: `interval` is the window width for heat/latency and
  /// the cadence the harness ticks gauges at; `partitions` sizes the heat
  /// table. Until enable() is called every entry point is a one-branch no-op.
  void enable(Duration interval, std::size_t partitions);

  bool enabled() const { return interval_ > 0; }
  Duration interval() const { return interval_; }

  /// Names a gauge; tick() takes its samples in the order added. Call before
  /// the first tick so all gauges have one value per tick.
  void add_gauge(std::string name);

  /// One tick at virtual time `t`: `samples` holds one value per gauge, in
  /// add_gauge() order. Driven by the harness's telemetry timer chain.
  void tick(Time t, const std::vector<double>& samples);

  /// A command delivered on `partition` at time `t`; `multi` marks
  /// cross-partition commands. Call from the same leader-gated site as the
  /// `server.*_partition_commands` counters so windowed sums tile them.
  void record_command(Time t, std::size_t partition, bool multi);

  /// Move churn touching `partition` (as source or destination) at `t`.
  void record_move(Time t, std::size_t partition);

  /// A completed command's end-to-end latency at completion time `t`. Call
  /// from the same site as `client.latency_us` so merged windows reproduce
  /// the end-of-run histogram.
  void record_latency(Time t, std::int64_t latency_us) {
    if (enabled()) latency_.at(t).record(latency_us);
  }

  // -- read side (serialization, dashboards, tests) --------------------------

  const std::vector<Time>& tick_times() const { return ticks_; }
  const std::vector<Gauge>& gauges() const { return gauges_; }
  const std::vector<PartitionHeat>& heat() const { return heat_; }
  const std::vector<Histogram>& latency_windows() const { return latency_.values(); }

  /// All latency windows merged into one histogram (equals the end-of-run
  /// latency histogram when both record at the same site).
  Histogram merged_latency() const;

 private:
  /// Partition `p`'s heat. Partitions booted mid-run (elastic add) index past
  /// the enable()-time table, which grows to hold them.
  PartitionHeat& heat_of(std::size_t p);

  Duration interval_ = 0;  // 0 = disabled
  std::vector<Time> ticks_;
  std::vector<Gauge> gauges_;
  std::vector<PartitionHeat> heat_;
  Windows<Histogram> latency_;
};

}  // namespace dssmr::stats
