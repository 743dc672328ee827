// Scaler: executes a ScalePlan against a live Deployment.
//
// The scaler is an actor on the simulation engine like the nemesis: it
// schedules one callback per plan event at arm()+event.at, and each callback
// drives elasticity through the same public surfaces tests use.
//
// Scale-out (`add-partition`):
//   1. Deployment::add_partition() boots a fresh replica group (processes,
//      multicast registration, telemetry wiring) and starts it.
//   2. The scaler hands the new GroupId to the current oracle leader's
//      submit_reconfig(), which atomically multicasts a kReconfig membership
//      record to the oracle group — every oracle replica admits the partition
//      at the same point in the delivered command order, and the leader plans
//      chunked rebalance moves to fill it toward the per-partition quota.
//
// Scale-in (`remove-partition:<i>`):
//   1. submit_reconfig(retire): every oracle replica marks the partition
//      draining (no new placements land there) and the leader plans moves
//      shipping every still-mapped variable to the remaining live partitions.
//   2. The scaler polls the drain barrier (Deployment::partition_drained: no
//      replica owns a variable, queues and pending multicasts empty, oracle
//      load zero) and, once it holds, calls finish_retire() — replicas answer
//      kRetired from then on and the group leaves the clients' fallback
//      universe. No command is lost or duplicated: everything delivered
//      before the barrier executed normally, everything after gets kRetired
//      and the client re-routes.
//   3. A post-retire watchdog keeps checking for stragglers: a move issued
//      against a pre-drain prophecy can land variables on the retired
//      partition after the barrier (rejecting it would lose the shipped
//      values, so retired replicas accept it). The watchdog re-submits the
//      idempotent retire record, which re-sweeps whatever reappeared.
//
// Like the nemesis, the scaler draws no randomness of its own, so a (plan,
// deployment config, seed) triple replays the exact same scale history and
// run records stay byte-identical.
//
// Measurements ride the `elastic.` metric prefix (the run record's v7
// `elasticity` section; the oracle contributes partitions_added/retired and
// the rebalance move/variable counts): the scaler adds `elastic.plan_events`
// plus the `elastic.drain_time_us` histogram (retire record submitted ->
// drain barrier passed) and annotates the telemetry timeline with marks so
// dashboards can shade the rebalance window.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "fault/scale_plan.h"
#include "harness/deployment.h"

namespace dssmr::fault {

class Scaler {
 public:
  /// Validates the plan against the deployment's shape (throws
  /// std::invalid_argument on e.g. `remove-partition:5` in a 2-partition
  /// deployment, removing the same partition twice, or draining the last
  /// live partition).
  Scaler(harness::Deployment& deployment, ScalePlan plan);

  Scaler(const Scaler&) = delete;
  Scaler& operator=(const Scaler&) = delete;

  /// Schedules every plan event relative to engine().now(). Call once, after
  /// Deployment::settle() and before driving load.
  void arm();

  const ScalePlan& plan() const { return plan_; }
  std::uint64_t events_fired() const { return events_fired_; }
  /// Every remove event has passed its drain barrier and retired (vacuously
  /// true for add-only plans). Tests run the engine until this holds before
  /// auditing consistency.
  bool quiesced() const { return events_fired_ == plan_.events.size() && pending_removes_ == 0; }

 private:
  void validate() const;
  void fire(const ScaleEvent& e);
  void do_add();
  void do_remove(std::size_t partition);
  /// Submits a kReconfig on whichever oracle replica currently leads,
  /// retrying on a poll cadence while the group is between leaders.
  void submit_on_leader(GroupId target, std::uint32_t op, int polls_left);
  /// Drain-barrier poll: fires finish_retire() once the partition is empty.
  void await_drain(std::size_t partition, Time submitted_at, int polls_left);
  /// Post-retire straggler sweep (see file comment).
  void watchdog(std::size_t partition, int polls_left);

  harness::Deployment& d_;
  ScalePlan plan_;
  bool armed_ = false;
  std::uint64_t events_fired_ = 0;
  std::size_t pending_removes_ = 0;
};

}  // namespace dssmr::fault
