#include "stats/timeseries.h"

namespace dssmr::stats {

double TimeSeries::bucket(std::size_t i) const {
  return i < bucket_count() ? buckets_.values()[i] : 0.0;
}

double TimeSeries::rate(std::size_t i) const {
  return bucket(i) / to_seconds(bucket_width());
}

std::vector<double> TimeSeries::rates(std::size_t n) const {
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(rate(i));
  return out;
}

}  // namespace dssmr::stats
