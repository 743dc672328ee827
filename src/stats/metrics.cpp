#include "stats/metrics.h"

namespace dssmr::stats {

Counter& dummy_counter() {
  thread_local Counter c;
  return c;
}

std::uint64_t Metrics::counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second.value();
}

const Histogram* Metrics::find_histogram(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

TimeSeries& Metrics::series(const std::string& name) {
  auto it = series_.find(name);
  if (it == series_.end()) {
    it = series_.emplace(name, TimeSeries{kSeriesBucketWidth}).first;
  }
  return it->second;
}

const TimeSeries* Metrics::find_series(const std::string& name) const {
  auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

void Metrics::reset() {
  counters_.clear();
  histograms_.clear();
  series_.clear();
  spans_.clear();
  recorder_.reset();
}

}  // namespace dssmr::stats
