// Fixed-width windows over virtual time.
//
// Windows<T> is the one place a virtual time becomes a bucket index: window
// i covers [i*width, (i+1)*width), storage grows on the first write to a
// window, and windows never written read as T{}. TimeSeries (the "throughput
// over time" and "moves over time" figures) and the flight recorder's heat
// and latency windows (stats/recorder.h) all bucket through it.
#pragma once

#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "common/types.h"

namespace dssmr::stats {

/// Hard cap on window growth: one window per second for ~12 days of virtual
/// time at the series' default width. A far-future `t` (clock arithmetic
/// bug, uninitialized Time) would otherwise resize a vector to petabytes;
/// Windows::at() fails loudly instead of letting the allocator kill the
/// process.
inline constexpr std::size_t kMaxBuckets = 1u << 20;

template <class T>
class Windows {
 public:
  /// No width yet, so no window can be written (a disabled Recorder's state).
  Windows() = default;
  explicit Windows(Duration width) : width_(width) { DSSMR_ASSERT(width > 0); }

  /// The window containing time `t`, grown into existence if needed. Aborts
  /// (via DSSMR_ASSERT) if `t` lands past kMaxBuckets windows.
  T& at(Time t) {
    DSSMR_ASSERT(width_ > 0 && t >= 0);
    const auto idx = static_cast<std::size_t>(t / width_);
    DSSMR_ASSERT_MSG(idx < kMaxBuckets,
                     "bucket index exceeds kMaxBuckets: t is implausibly far in the "
                     "future; check the caller's clock arithmetic");
    if (idx >= values_.size()) values_.resize(idx + 1);
    return values_[idx];
  }

  Duration width() const { return width_; }
  /// Windows up to the last one written (trailing T{} windows are implicit).
  const std::vector<T>& values() const { return values_; }

 private:
  Duration width_ = 0;
  std::vector<T> values_;
};

class TimeSeries {
 public:
  explicit TimeSeries(Duration bucket_width = sec(1)) : buckets_(bucket_width) {}

  /// Adds `amount` to the bucket containing time `t`.
  void add(Time t, double amount = 1.0) {
    buckets_.at(t) += amount;
    total_ += amount;
  }

  Duration bucket_width() const { return buckets_.width(); }
  std::size_t bucket_count() const { return buckets_.values().size(); }

  /// Value accumulated in bucket `i` (0 when past the recorded range).
  double bucket(std::size_t i) const;

  /// Start time of bucket `i`.
  Time bucket_start(std::size_t i) const { return static_cast<Time>(i) * bucket_width(); }

  /// Value normalized to a per-second rate.
  double rate(std::size_t i) const;

  /// rate(i) of the first `n` buckets (0 past the recorded range).
  std::vector<double> rates(std::size_t n) const;

  double total() const { return total_; }

 private:
  Windows<double> buckets_;
  double total_ = 0;
};

}  // namespace dssmr::stats
