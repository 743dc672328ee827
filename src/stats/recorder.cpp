#include "stats/recorder.h"

#include <utility>

#include "common/assert.h"

namespace dssmr::stats {

void Recorder::enable(Duration interval, std::size_t partitions) {
  DSSMR_ASSERT_MSG(interval > 0, "telemetry interval must be positive");
  interval_ = interval;
  heat_.assign(partitions, PartitionHeat{interval});
  latency_ = Windows<Histogram>{interval};
}

void Recorder::add_gauge(std::string name) {
  DSSMR_ASSERT_MSG(ticks_.empty(), "add gauges before the first tick");
  gauges_.push_back(Gauge{std::move(name), {}});
}

void Recorder::tick(Time t, const std::vector<double>& samples) {
  if (!enabled()) return;
  DSSMR_ASSERT(samples.size() == gauges_.size());
  ticks_.push_back(t);
  DSSMR_ASSERT_MSG(ticks_.size() <= kMaxBuckets, "telemetry tick count exceeds kMaxBuckets");
  for (std::size_t i = 0; i < gauges_.size(); ++i) gauges_[i].values.push_back(samples[i]);
}

Recorder::PartitionHeat& Recorder::heat_of(std::size_t p) {
  if (p >= heat_.size()) heat_.resize(p + 1, PartitionHeat{interval_});
  return heat_[p];
}

void Recorder::record_command(Time t, std::size_t partition, bool multi) {
  if (!enabled()) return;
  PartitionHeat& h = heat_of(partition);
  ++h.commands.at(t);
  if (multi) ++h.multi.at(t);
}

void Recorder::record_move(Time t, std::size_t partition) {
  if (enabled()) ++heat_of(partition).moves.at(t);
}

Histogram Recorder::merged_latency() const {
  Histogram out;
  for (const Histogram& h : latency_windows()) out.merge(h);
  return out;
}

}  // namespace dssmr::stats
