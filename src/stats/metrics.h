// Named-metric registry shared by one deployment.
//
// Protocol layers bump counters ("moves", "retries", "oracle.consults", ...)
// and record into histograms/series through this registry; the experiment
// harness reads them out at the end of a run. Lookup is by string name so
// new metrics need no central enum, and all accessors create-on-first-use.
//
// Hot paths should resolve a Counter& once (counter_handle) and inc()
// through it, instead of paying a map lookup per event.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "stats/histogram.h"
#include "stats/recorder.h"
#include "stats/span.h"
#include "stats/timeseries.h"

namespace dssmr::stats {

/// One named counter. References returned by Metrics::counter_handle stay
/// valid for the registry's lifetime (std::map nodes are stable), so layers
/// intern them at init time and increment without a string lookup.
class Counter {
 public:
  void inc(std::uint64_t by = 1) { value_ += by; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Sink for the counter handles of a feature that is off (prefetch, elastic
/// membership): bumps land here and nothing reads them, so an off feature
/// adds no counter to the run record.
/// thread_local: simulations on different sweep threads may share it.
Counter& dummy_counter();

class Metrics {
 public:
  void inc(const std::string& name, std::uint64_t by = 1) { counters_[name].inc(by); }
  std::uint64_t counter(const std::string& name) const;

  /// Interned handle: create-on-first-use, stable for the registry lifetime.
  Counter& counter_handle(const std::string& name) { return counters_[name]; }

  Histogram& histogram(const std::string& name) { return histograms_[name]; }
  const Histogram* find_histogram(const std::string& name) const;

  /// Series bucket by kSeriesBucketWidth of virtual time.
  TimeSeries& series(const std::string& name);
  const TimeSeries* find_series(const std::string& name) const;

  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Histogram>& histograms() const { return histograms_; }
  const std::map<std::string, TimeSeries>& all_series() const { return series_; }

  /// Deployment-wide event store (spans and instants); records nothing until
  /// SpanStore::enable() / enable_instants() switch a kind on.
  SpanStore& spans() { return spans_; }
  const SpanStore& spans() const { return spans_; }

  /// Flight-recorder telemetry (windowed heat, gauges, latency windows);
  /// disabled unless Recorder::enable() is called.
  Recorder& recorder() { return recorder_; }
  const Recorder& recorder() const { return recorder_; }

 private:
  static constexpr Duration kSeriesBucketWidth = sec(1);

  std::map<std::string, Counter> counters_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, TimeSeries> series_;
  SpanStore spans_;
  Recorder recorder_;
};

}  // namespace dssmr::stats
