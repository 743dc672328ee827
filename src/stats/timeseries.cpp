#include "stats/timeseries.h"

#include "common/assert.h"

namespace dssmr::stats {

TimeSeries::TimeSeries(Duration bucket_width) : bucket_width_(bucket_width) {
  DSSMR_ASSERT(bucket_width > 0);
}

void TimeSeries::add(Time t, double amount) {
  DSSMR_ASSERT(t >= 0);
  const auto idx = static_cast<std::size_t>(t / bucket_width_);
  DSSMR_ASSERT_MSG(idx < kMaxBuckets,
                   "TimeSeries::add: t is implausibly far in the future (bucket index "
                   "exceeds kMaxBuckets); check the caller's clock arithmetic");
  if (idx >= buckets_.size()) buckets_.resize(idx + 1, 0.0);
  buckets_[idx] += amount;
  total_ += amount;
}

double TimeSeries::bucket(std::size_t i) const {
  return i < buckets_.size() ? buckets_[i] : 0.0;
}

double TimeSeries::rate(std::size_t i) const {
  return bucket(i) / to_seconds(bucket_width_);
}

std::vector<double> TimeSeries::rates(std::size_t n) const {
  std::vector<double> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(rate(i));
  return out;
}

}  // namespace dssmr::stats
