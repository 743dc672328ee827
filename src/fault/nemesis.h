// Nemesis: executes a FaultPlan against a live Deployment.
//
// The nemesis is an actor on the simulation engine like everything else: it
// schedules one callback per plan event at arm()+event.at, and each callback
// manipulates the deployment through the same public surfaces tests use
// (Network::crash/recover + GroupNode::halt_node/restart_node,
// Network::set_link_directed, Network::set_drop_probability,
// Deployment::add_partition/finish_retire). It draws no randomness of its
// own, so a (plan, deployment config, seed) triple replays the exact same
// history — run records stay byte-identical.
//
// Scale-out (`add-partition`):
//   1. Deployment::add_partition() boots a fresh replica group (processes,
//      multicast registration, telemetry wiring) and starts it.
//   2. The nemesis hands the new GroupId to the current oracle leader's
//      submit_reconfig(), which atomically multicasts a kReconfig membership
//      record to the oracle group — every oracle replica admits the partition
//      at the same point in the delivered command order, and the leader plans
//      chunked rebalance moves to fill it toward the per-partition quota.
//
// Scale-in (`remove-partition:<i>`):
//   1. submit_reconfig(retire): every oracle replica marks the partition
//      draining (no new placements land there) and the leader plans moves
//      shipping every still-mapped variable to the remaining live partitions.
//   2. The nemesis polls the drain barrier (Deployment::partition_drained: no
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
// The leader watch after a kill-leader, the reconfig submit and the drain
// barrier are one poll: every kPoll, at most kPollLimit times. A poll that
// runs out bumps `faults.poll_expired` (leader watch) or
// `elastic.poll_expired` (submit, drain) and marks the timeline with what it
// waited for, so a group that never re-elects or a drain that never ends
// shows in the run record.
//
// Measurements ride two metric prefixes, so a fault-only run has no
// `elasticity` section and a scale-only run no `faults` section:
//   faults.events_injected / crashes / recoveries / leader_kills /
//   faults.links_cut / heals / drop_bursts      — what the fault events did;
//   faults.time_to_new_leader_us (histogram)    — kill-leader to the group
//                                                 having a live leader again,
//                                                 when the group kept a
//                                                 quorum (an election);
//   faults.time_to_restart_us (histogram)       — the same wait when the kill
//                                                 lost the quorum (a restart);
//   faults.quorum_lost                          — crashes (kill-leader
//     included) that left their group one short of a majority, each with a
//     `quorum lost` mark; such a group orders nothing until a recovery;
//   faults.retries_in_window / fallbacks_in_window — client retries and
//     S-SMR fallbacks that happened while at least one disruption was open
//     (crash not yet recovered, cut not yet healed, drop burst running);
//   elastic.plan_events / straggler_sweeps      — scale events fired, and
//                                                 watchdog re-sweeps;
//   elastic.drain_time_us (histogram)           — retire record submitted to
//                                                 drain barrier passed.
// The oracle adds partitions_added/retired and the rebalance counts.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "fault/fault_plan.h"
#include "harness/deployment.h"
#include "multicast/atomic.h"

namespace dssmr::fault {

class Nemesis {
 public:
  /// Replays the (time-sorted) plan against the deployment's shape and throws
  /// std::invalid_argument on a target outside it (`p5` in a 2-partition
  /// deployment, unless the plan added it first), removing the same
  /// partition twice, or draining the last live partition.
  Nemesis(harness::Deployment& deployment, FaultPlan plan);

  Nemesis(const Nemesis&) = delete;
  Nemesis& operator=(const Nemesis&) = delete;

  /// Schedules every plan event relative to engine().now(). Call once, after
  /// Deployment::settle() and before driving load.
  void arm();

  const FaultPlan& plan() const { return plan_; }
  std::uint64_t events_fired() const { return events_fired_; }
  /// Every event has fired and every remove has passed its drain barrier.
  /// Tests run the engine until this holds before auditing consistency.
  bool quiesced() const {
    return events_fired_ == plan_.events.size() && pending_removes_ == 0;
  }

 private:
  using Node = multicast::GroupNode;

  void validate() const;
  Node* process_node(const FaultTarget& t);
  std::vector<Node*> group_members(const FaultTarget& t);
  /// The whole-group target (kPartition or kOracle) `n` belongs to.
  FaultTarget group_of(const Node& n) const;
  std::vector<ProcessId> expand_set(const std::vector<FaultTarget>& set);

  void fire(const FaultEvent& e);
  /// Crashes `n`; true when that left its group one short of a majority.
  bool do_crash(Node& n);
  void do_recover(Node& n);
  void do_kill_leader(const FaultEvent& e);
  void do_cut(const FaultEvent& e);
  void do_heal();
  void do_drop_burst(const FaultEvent& e);
  void cut_one(ProcessId from, ProcessId to);
  void do_add();
  void do_remove(std::size_t partition);
  /// Submits a kReconfig on whichever oracle replica currently leads,
  /// polling while the group is between leaders.
  void submit_on_leader(GroupId target, std::uint32_t op);
  /// Post-retire straggler sweep (see file comment).
  void watchdog(std::size_t partition, int polls_left);
  /// Calls `done` now and then every kPoll until it returns true. The last
  /// of kPollLimit re-tries that fails bumps the `expired` counter and marks
  /// the timeline with `what`.
  void poll(std::function<bool()> done, const char* expired, std::string what,
            int polls_left);
  void mark(std::string label);

  void window_open();
  void window_close();

  harness::Deployment& d_;
  FaultPlan plan_;
  bool armed_ = false;
  std::uint64_t events_fired_ = 0;
  std::size_t pending_removes_ = 0;
  /// Crash and kill-leader victims still down, in crash order; any recover
  /// removes its node, and `recover:last` takes the back.
  std::vector<Node*> down_;
  /// Directed links currently cut by this nemesis; heal restores exactly
  /// these (a deployment-made cut from a test is left alone).
  std::vector<std::pair<ProcessId, ProcessId>> cut_links_;
  std::size_t open_cut_events_ = 0;
  /// Fault-window bookkeeping: client counter snapshots while >= 1
  /// disruption is open.
  std::size_t open_disruptions_ = 0;
  std::uint64_t retries_at_open_ = 0;
  std::uint64_t fallbacks_at_open_ = 0;
};

}  // namespace dssmr::fault
