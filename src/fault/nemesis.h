// Nemesis: executes a FaultPlan against a live Deployment.
//
// The nemesis is an actor on the simulation engine like everything else: it
// schedules one callback per plan event at arm()+event.at, and each callback
// manipulates the deployment through the same public crash/recover surfaces
// tests use (Network::crash/recover + GroupNode::halt_node/restart_node,
// Network::set_link_directed, Network::set_drop_probability). It draws no
// randomness of its own, so a (plan, deployment config, seed) triple replays
// the exact same fault history — run records stay byte-identical.
//
// Besides injecting faults it measures them, under the `faults.` metric
// prefix (surfaced as the run record's v3 `faults` section):
//   faults.events_injected / crashes / recoveries / leader_kills /
//   faults.links_cut / heals / drop_bursts      — what the plan did;
//   faults.time_to_new_leader_us (histogram)    — kill-leader to the group
//                                                 having a live leader again;
//   faults.retries_in_window / fallbacks_in_window — client retries and
//     S-SMR fallbacks that happened while at least one disruption was open
//     (crash not yet recovered, cut not yet healed, drop burst running).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"
#include "fault/fault_plan.h"
#include "harness/deployment.h"
#include "multicast/atomic.h"

namespace dssmr::fault {

class Nemesis {
 public:
  /// Validates every plan target against the deployment's shape (throws
  /// std::invalid_argument on e.g. `p5` in a 2-partition deployment).
  Nemesis(harness::Deployment& deployment, FaultPlan plan);

  Nemesis(const Nemesis&) = delete;
  Nemesis& operator=(const Nemesis&) = delete;

  /// Schedules every plan event relative to engine().now(). Call once, after
  /// Deployment::settle() and before driving load.
  void arm();

  const FaultPlan& plan() const { return plan_; }
  std::uint64_t events_fired() const { return events_fired_; }

 private:
  using Node = multicast::GroupNode;

  void validate() const;
  Node* process_node(const FaultTarget& t);
  std::vector<Node*> group_members(const FaultTarget& t);
  std::vector<ProcessId> expand_set(const std::vector<FaultTarget>& set);

  void fire(const FaultEvent& e);
  void do_crash(Node& n);
  void do_recover(Node& n);
  void do_kill_leader(const FaultEvent& e);
  void do_cut(const FaultEvent& e);
  void do_heal();
  void do_drop_burst(const FaultEvent& e);
  void cut_one(ProcessId from, ProcessId to);
  void watch_for_leader(std::vector<Node*> members, Time killed_at, int polls_left);

  void window_open();
  void window_close();

  harness::Deployment& d_;
  FaultPlan plan_;
  bool armed_ = false;
  std::uint64_t events_fired_ = 0;
  Node* last_victim_ = nullptr;
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
