#include "fault/scaler.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "common/assert.h"
#include "core/oracle.h"

namespace dssmr::fault {
namespace {

/// Leader-watch / drain-barrier poll cadence. Same rationale as the nemesis
/// leader watch: fine enough that drain_time_us is accurate to half a
/// heartbeat, coarse enough not to inflate the event count.
constexpr Duration kPoll = usec(500);
/// Give up after this many polls (an oracle group with no quorum never
/// elects, a partition wedged behind a dead peer never drains; the run's
/// audit then reports the stuck partition instead of spinning forever).
constexpr int kPollLimit = 10000;
/// Post-retire straggler watchdog: slower cadence, bounded horizon.
constexpr Duration kWatchdogPoll = msec(5);
constexpr int kWatchdogPolls = 400;

}  // namespace

Scaler::Scaler(harness::Deployment& deployment, ScalePlan plan)
    : d_(deployment), plan_(std::move(plan)) {
  validate();
}

void Scaler::validate() const {
  // Replay the (time-sorted) plan against the deployment's shape: indexes are
  // dense over every partition ever created, so an add raises the valid range
  // by one and a remove must stay inside it, hit each partition at most once,
  // and never drain the last live one.
  std::size_t total = d_.config().partitions;
  std::size_t live = total;
  std::vector<bool> removed(total, false);
  for (const ScaleEvent& e : plan_.events) {
    if (e.action == ScaleAction::kAddPartition) {
      ++total;
      ++live;
      removed.push_back(false);
      continue;
    }
    if (e.partition >= total) {
      throw std::invalid_argument(
          "scale plan \"" + plan_.name + "\" removes partition " +
          std::to_string(e.partition) + " but only " + std::to_string(total) +
          " partitions exist at that point in the plan");
    }
    if (removed[e.partition]) {
      throw std::invalid_argument("scale plan \"" + plan_.name + "\" removes partition " +
                                  std::to_string(e.partition) + " twice");
    }
    if (live <= 1) {
      throw std::invalid_argument("scale plan \"" + plan_.name +
                                  "\" would drain the last live partition");
    }
    removed[e.partition] = true;
    --live;
  }
}

void Scaler::arm() {
  if (armed_ || plan_.empty()) return;
  armed_ = true;
  for (const ScaleEvent& e : plan_.events) {
    d_.engine().schedule(e.at, [this, &e] { fire(e); });
  }
}

void Scaler::fire(const ScaleEvent& e) {
  ++events_fired_;
  d_.metrics().inc("elastic.plan_events");
  switch (e.action) {
    case ScaleAction::kAddPartition:
      do_add();
      break;
    case ScaleAction::kRemovePartition:
      do_remove(e.partition);
      break;
  }
}

void Scaler::do_add() {
  const std::size_t index = d_.partition_count();
  const GroupId gid = d_.add_partition();
  d_.metrics().spans().record(stats::InstantKind::kMark, d_.engine().now(), 0, 0, 0,
                              "scale-out: partition " + std::to_string(index) + " booted");
  submit_on_leader(gid, core::kReconfigAdd, kPollLimit);
}

void Scaler::do_remove(std::size_t partition) {
  DSSMR_ASSERT_MSG(partition < d_.partition_count(),
                   "scale plan removes a partition that was never created");
  DSSMR_ASSERT_MSG(!d_.partition_retired(partition), "partition retired twice");
  const GroupId gid = d_.partition_gid(partition);
  ++pending_removes_;
  d_.metrics().spans().record(stats::InstantKind::kMark, d_.engine().now(), 0, 0, 0,
                              "scale-in: partition " + std::to_string(partition) + " draining");
  submit_on_leader(gid, core::kReconfigRetire, kPollLimit);
  await_drain(partition, d_.engine().now(), kPollLimit);
}

void Scaler::submit_on_leader(GroupId target, std::uint32_t op, int polls_left) {
  for (std::size_t r = 0; r < d_.config().oracle_replicas; ++r) {
    core::OracleNode& o = d_.oracle(r);
    if (!o.halted() && o.is_leader()) {
      o.submit_reconfig(target, op);
      return;
    }
  }
  if (polls_left <= 0) return;  // no quorum; the audit will say so
  d_.engine().schedule(kPoll, [this, target, op, polls_left] {
    submit_on_leader(target, op, polls_left - 1);
  });
}

void Scaler::await_drain(std::size_t partition, Time submitted_at, int polls_left) {
  if (d_.partition_drained(partition)) {
    d_.metrics().histogram("elastic.drain_time_us")
        .record(d_.engine().now() - submitted_at);
    d_.finish_retire(partition);
    d_.metrics().spans().record(
        stats::InstantKind::kPartitionRetired, d_.engine().now(), 0, 0,
        static_cast<std::int64_t>(d_.partition_gid(partition).value),
        "scale-in: partition " + std::to_string(partition) + " retired");
    DSSMR_ASSERT(pending_removes_ > 0);
    --pending_removes_;
    watchdog(partition, kWatchdogPolls);
    return;
  }
  if (polls_left <= 0) return;
  d_.engine().schedule(kPoll, [this, partition, submitted_at, polls_left] {
    await_drain(partition, submitted_at, polls_left - 1);
  });
}

void Scaler::watchdog(std::size_t partition, int polls_left) {
  if (polls_left <= 0) return;
  d_.engine().schedule(kWatchdogPoll, [this, partition, polls_left] {
    if (!d_.partition_drained(partition)) {
      // A straggler move (issued against a pre-drain prophecy) landed
      // variables on the retired partition. The retire record is idempotent:
      // re-delivering it re-sweeps whatever is mapped there now.
      d_.metrics().inc("elastic.straggler_sweeps");
      d_.metrics().spans().record(
          stats::InstantKind::kMark, d_.engine().now(), 0, 0, 0,
          "scale-in: straggler re-sweep of partition " + std::to_string(partition));
      submit_on_leader(d_.partition_gid(partition), core::kReconfigRetire, kPollLimit);
    }
    watchdog(partition, polls_left - 1);
  });
}

}  // namespace dssmr::fault
