#include "stats/recorder.h"

#include <utility>

#include "common/assert.h"

namespace dssmr::stats {

void Recorder::enable(Duration interval, std::size_t partitions) {
  DSSMR_ASSERT_MSG(interval > 0, "telemetry interval must be positive");
  enabled_ = true;
  interval_ = interval;
  heat_.assign(partitions, PartitionHeat{});
}

void Recorder::register_gauge(std::string name, GaugeFn fn) {
  if (!enabled_) return;
  DSSMR_ASSERT(fn != nullptr);
  DSSMR_ASSERT_MSG(ticks_.empty(), "register gauges before the first tick");
  gauges_.push_back(Gauge{std::move(name), std::move(fn), {}});
}

void Recorder::tick(Time t) {
  if (!enabled_) return;
  ticks_.push_back(t);
  DSSMR_ASSERT_MSG(ticks_.size() <= kMaxBuckets, "telemetry tick count exceeds kMaxBuckets");
  for (Gauge& g : gauges_) g.values.push_back(g.fn ? g.fn() : 0.0);
}

std::size_t Recorder::bucket_of(Time t) const {
  DSSMR_ASSERT(t >= 0);
  const auto idx = static_cast<std::size_t>(t / interval_);
  DSSMR_ASSERT_MSG(idx < kMaxBuckets,
                   "Recorder bucket index exceeds kMaxBuckets; check the caller's "
                   "clock arithmetic");
  return idx;
}

namespace {

void bump_bucket(std::vector<std::uint64_t>& buckets, std::size_t idx) {
  if (idx >= buckets.size()) buckets.resize(idx + 1, 0);
  ++buckets[idx];
}

}  // namespace

void Recorder::record_command(Time t, std::size_t partition, bool multi) {
  if (!enabled_) return;
  // Elastic add: partitions booted mid-run index past the enable()-time
  // table — grow it (their pre-boot buckets stay implicit zeros).
  if (partition >= heat_.size()) heat_.resize(partition + 1);
  const std::size_t idx = bucket_of(t);
  PartitionHeat& h = heat_[partition];
  bump_bucket(h.commands, idx);
  ++h.total_commands;
  if (multi) {
    bump_bucket(h.multi, idx);
    ++h.total_multi;
  }
}

void Recorder::record_move(Time t, std::size_t partition) {
  if (!enabled_) return;
  if (partition >= heat_.size()) heat_.resize(partition + 1);
  PartitionHeat& h = heat_[partition];
  bump_bucket(h.moves, bucket_of(t));
  ++h.total_moves;
}

void Recorder::record_latency(Time t, std::int64_t latency_us) {
  if (!enabled_) return;
  const std::size_t idx = bucket_of(t);
  if (idx >= latency_windows_.size()) latency_windows_.resize(idx + 1);
  latency_windows_[idx].record(latency_us);
}

Histogram Recorder::merged_latency() const {
  Histogram out;
  for (const Histogram& h : latency_windows_) out.merge(h);
  return out;
}

void Recorder::reset() {
  enabled_ = false;
  interval_ = 0;
  ticks_.clear();
  gauges_.clear();
  heat_.clear();
  latency_windows_.clear();
}

void Recorder::copy_from(const Recorder& other) {
  enabled_ = other.enabled_;
  interval_ = other.interval_;
  ticks_ = other.ticks_;
  gauges_.clear();
  gauges_.reserve(other.gauges_.size());
  // Keep the sampled values, drop the callbacks: they close over deployment
  // objects that die before run-record snapshots do.
  for (const Gauge& g : other.gauges_) gauges_.push_back(Gauge{g.name, nullptr, g.values});
  heat_ = other.heat_;
  latency_windows_ = other.latency_windows_;
}

}  // namespace dssmr::stats
