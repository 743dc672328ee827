#include "fault/nemesis.h"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace dssmr::fault {
namespace {

/// Leader-watch cadence after a kill-leader: fine enough that
/// time_to_new_leader is accurate to half a heartbeat, coarse enough not to
/// inflate the event count.
constexpr Duration kLeaderPoll = usec(500);
/// Give up watching after this many polls (a group with no quorum left never
/// elects; the histogram simply records nothing).
constexpr int kLeaderPollLimit = 10000;

}  // namespace

Nemesis::Nemesis(harness::Deployment& deployment, FaultPlan plan)
    : d_(deployment), plan_(std::move(plan)) {
  validate();
}

void Nemesis::validate() const {
  const auto& cfg = d_.config();
  auto check = [&](const FaultTarget& t) {
    switch (t.kind) {
      case FaultTarget::Kind::kReplica:
        if (t.partition >= cfg.partitions || t.replica >= cfg.replicas_per_partition) {
          throw std::invalid_argument(
              "fault plan \"" + plan_.name + "\" targets p" + std::to_string(t.partition) +
              "r" + std::to_string(t.replica) + " but the deployment has " +
              std::to_string(cfg.partitions) + " partitions x " +
              std::to_string(cfg.replicas_per_partition) + " replicas");
        }
        break;
      case FaultTarget::Kind::kOracleReplica:
        if (t.replica >= cfg.oracle_replicas) {
          throw std::invalid_argument("fault plan \"" + plan_.name + "\" targets oracle" +
                                      std::to_string(t.replica) + " but the oracle has " +
                                      std::to_string(cfg.oracle_replicas) + " replicas");
        }
        break;
      case FaultTarget::Kind::kPartition:
        if (t.partition >= cfg.partitions) {
          throw std::invalid_argument("fault plan \"" + plan_.name + "\" targets p" +
                                      std::to_string(t.partition) +
                                      " but the deployment has " +
                                      std::to_string(cfg.partitions) + " partitions");
        }
        break;
      case FaultTarget::Kind::kOracle:
      case FaultTarget::Kind::kLastVictim:
        break;
    }
  };
  for (const FaultEvent& e : plan_.events) {
    check(e.target);
    for (const FaultTarget& t : e.side_a) check(t);
    for (const FaultTarget& t : e.side_b) check(t);
  }
}

void Nemesis::arm() {
  if (armed_ || plan_.empty()) return;
  armed_ = true;
  for (const FaultEvent& e : plan_.events) {
    d_.engine().schedule(e.at, [this, &e] { fire(e); });
  }
}

Nemesis::Node* Nemesis::process_node(const FaultTarget& t) {
  switch (t.kind) {
    case FaultTarget::Kind::kReplica:
      return &d_.server(t.partition, t.replica);
    case FaultTarget::Kind::kOracleReplica:
      return &d_.oracle(t.replica);
    case FaultTarget::Kind::kLastVictim:
      return last_victim_;
    default:
      return nullptr;
  }
}

std::vector<Nemesis::Node*> Nemesis::group_members(const FaultTarget& t) {
  std::vector<Node*> out;
  if (t.kind == FaultTarget::Kind::kPartition) {
    for (std::size_t r = 0; r < d_.config().replicas_per_partition; ++r) {
      out.push_back(&d_.server(t.partition, r));
    }
  } else if (t.kind == FaultTarget::Kind::kOracle) {
    for (std::size_t r = 0; r < d_.config().oracle_replicas; ++r) {
      out.push_back(&d_.oracle(r));
    }
  }
  return out;
}

std::vector<ProcessId> Nemesis::expand_set(const std::vector<FaultTarget>& set) {
  std::vector<ProcessId> out;
  for (const FaultTarget& t : set) {
    if (Node* n = process_node(t); n != nullptr) {
      out.push_back(n->pid());
    } else {
      for (Node* m : group_members(t)) out.push_back(m->pid());
    }
  }
  return out;
}

void Nemesis::fire(const FaultEvent& e) {
  ++events_fired_;
  d_.metrics().inc("faults.events_injected");
  switch (e.action) {
    case FaultAction::kCrash:
      if (Node* n = process_node(e.target); n != nullptr) do_crash(*n);
      break;
    case FaultAction::kRecover:
      if (Node* n = process_node(e.target); n != nullptr) do_recover(*n);
      break;
    case FaultAction::kKillLeader:
      do_kill_leader(e);
      break;
    case FaultAction::kCut:
      do_cut(e);
      break;
    case FaultAction::kHeal:
      do_heal();
      break;
    case FaultAction::kDropBurst:
      do_drop_burst(e);
      break;
  }
}

void Nemesis::do_crash(Node& n) {
  if (n.halted()) return;  // crashing a corpse is a no-op, not a new window
  d_.network().crash(n.pid());
  n.halt_node();
  last_victim_ = &n;
  d_.metrics().inc("faults.crashes");
  d_.metrics().spans().record(stats::InstantKind::kFaultInject, d_.engine().now(),
                              n.pid().value, 0, 0,
                              "crash pid=" + std::to_string(n.pid().value));
  window_open();
}

void Nemesis::do_recover(Node& n) {
  if (!n.halted()) return;
  d_.network().recover(n.pid());
  n.restart_node();
  d_.metrics().inc("faults.recoveries");
  d_.metrics().spans().record(stats::InstantKind::kFaultRecover, d_.engine().now(),
                              n.pid().value, 0, 0,
                              "recover pid=" + std::to_string(n.pid().value));
  window_close();
}

void Nemesis::do_kill_leader(const FaultEvent& e) {
  std::vector<Node*> members = group_members(e.target);
  Node* leader = nullptr;
  for (Node* m : members) {
    if (!m->halted() && m->is_leader()) {
      leader = m;
      break;
    }
  }
  if (leader == nullptr) return;  // no live leader to kill right now
  const Time killed_at = d_.engine().now();
  do_crash(*leader);
  d_.metrics().inc("faults.leader_kills");
  watch_for_leader(std::move(members), killed_at, kLeaderPollLimit);
}

void Nemesis::watch_for_leader(std::vector<Node*> members, Time killed_at,
                               int polls_left) {
  for (Node* m : members) {
    if (!m->halted() && m->is_leader()) {
      d_.metrics().histogram("faults.time_to_new_leader_us")
          .record(d_.engine().now() - killed_at);
      return;
    }
  }
  if (polls_left <= 0) return;
  d_.engine().schedule(kLeaderPoll, [this, members = std::move(members), killed_at,
                                     polls_left]() mutable {
    watch_for_leader(std::move(members), killed_at, polls_left - 1);
  });
}

void Nemesis::cut_one(ProcessId from, ProcessId to) {
  if (from == to) return;
  if (!d_.network().link_up(from, to)) return;  // already down (ours or not)
  d_.network().set_link_directed(from, to, false);
  cut_links_.emplace_back(from, to);
  d_.metrics().inc("faults.links_cut");
}

void Nemesis::do_cut(const FaultEvent& e) {
  const std::vector<ProcessId> a = expand_set(e.side_a);
  const std::vector<ProcessId> b = expand_set(e.side_b);
  const std::size_t before = cut_links_.size();
  for (ProcessId pa : a) {
    for (ProcessId pb : b) {
      cut_one(pa, pb);
      if (!e.directed) cut_one(pb, pa);
    }
  }
  const std::size_t cut = cut_links_.size() - before;
  d_.metrics().spans().record(stats::InstantKind::kFaultInject, d_.engine().now(), 0, 0,
                              static_cast<std::int64_t>(cut),
                              "cut " + std::to_string(cut) + " links");
  ++open_cut_events_;
  window_open();
}

void Nemesis::do_heal() {
  for (const auto& [from, to] : cut_links_) {
    d_.network().set_link_directed(from, to, true);
  }
  d_.metrics().spans().record(stats::InstantKind::kFaultRecover, d_.engine().now(), 0, 0,
                              static_cast<std::int64_t>(cut_links_.size()),
                              "heal " + std::to_string(cut_links_.size()) + " links");
  cut_links_.clear();
  d_.metrics().inc("faults.heals");
  while (open_cut_events_ > 0) {
    --open_cut_events_;
    window_close();
  }
}

void Nemesis::do_drop_burst(const FaultEvent& e) {
  // Bursts are not meant to nest; an overlapping burst restores the previous
  // burst's elevated value. Plans shipped here keep bursts disjoint.
  const double prev = d_.network().config().drop_probability;
  d_.network().set_drop_probability(e.drop_probability);
  d_.metrics().inc("faults.drop_bursts");
  d_.metrics().spans().record(stats::InstantKind::kFaultInject, d_.engine().now(), 0, 0,
                              static_cast<std::int64_t>(e.drop_probability * 1e6),
                              "drop burst p=" + std::to_string(e.drop_probability));
  window_open();
  d_.engine().schedule(e.duration, [this, prev] {
    d_.network().set_drop_probability(prev);
    d_.metrics().spans().record(stats::InstantKind::kFaultRecover, d_.engine().now(), 0, 0,
                                0, "drop burst over");
    window_close();
  });
}

void Nemesis::window_open() {
  if (open_disruptions_++ == 0) {
    retries_at_open_ = d_.metrics().counter("client.retries");
    fallbacks_at_open_ = d_.metrics().counter("client.fallbacks");
  }
}

void Nemesis::window_close() {
  if (open_disruptions_ == 0) return;
  if (--open_disruptions_ == 0) {
    d_.metrics().inc("faults.retries_in_window",
                     d_.metrics().counter("client.retries") - retries_at_open_);
    d_.metrics().inc("faults.fallbacks_in_window",
                     d_.metrics().counter("client.fallbacks") - fallbacks_at_open_);
  }
}

}  // namespace dssmr::fault
