// Fixed-width time-bucketed series.
//
// Used for the "throughput over time" and "moves over time" figures: events
// are accumulated into buckets of a configurable width of virtual time and
// reported as one row per bucket.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace dssmr::stats {

class TimeSeries {
 public:
  /// Hard cap on bucket growth: one bucket per second for ~12 days of
  /// virtual time at the default width. A far-future `t` (clock arithmetic
  /// bug, uninitialized Time) would otherwise resize the vector to petabytes;
  /// add() fails loudly instead of letting the allocator kill the process.
  static constexpr std::size_t kMaxBuckets = 1u << 20;

  explicit TimeSeries(Duration bucket_width = sec(1));

  /// Adds `amount` to the bucket containing time `t`. Aborts (via
  /// DSSMR_ASSERT) if `t` lands past kMaxBuckets buckets.
  void add(Time t, double amount = 1.0);

  Duration bucket_width() const { return bucket_width_; }
  std::size_t bucket_count() const { return buckets_.size(); }

  /// Value accumulated in bucket `i` (0 when past the recorded range).
  double bucket(std::size_t i) const;

  /// Start time of bucket `i`.
  Time bucket_start(std::size_t i) const { return static_cast<Time>(i) * bucket_width_; }

  /// Value normalized to a per-second rate.
  double rate(std::size_t i) const;

  /// rate(i) of the first `n` buckets (0 past the recorded range).
  std::vector<double> rates(std::size_t n) const;

  double total() const { return total_; }

 private:
  Duration bucket_width_;
  std::vector<double> buckets_;
  double total_ = 0;
};

}  // namespace dssmr::stats
