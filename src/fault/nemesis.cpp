#include "fault/nemesis.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "common/assert.h"
#include "core/oracle.h"

namespace dssmr::fault {
namespace {

/// Cadence of the leader watch, reconfig submit and drain barrier: fine
/// enough that time_to_new_leader and drain_time are accurate to half a
/// heartbeat, coarse enough not to inflate the event count.
constexpr Duration kPoll = usec(500);
/// Give up after this many polls: a group with no quorum left never elects,
/// and a partition wedged behind a dead peer never drains.
constexpr int kPollLimit = 10000;
/// Post-retire straggler watchdog: slower cadence, bounded horizon.
constexpr Duration kWatchdogPoll = msec(5);
constexpr int kWatchdogPolls = 400;

std::string group_name(const FaultTarget& group) {
  return group.kind == FaultTarget::Kind::kOracle ? "oracle"
                                                  : "p" + std::to_string(group.partition);
}

}  // namespace

Nemesis::Nemesis(harness::Deployment& deployment, FaultPlan plan)
    : d_(deployment), plan_(std::move(plan)) {
  validate();
}

void Nemesis::validate() const {
  // Partition indexes are dense over every partition ever created, so an add
  // raises the valid range by one as the time-sorted plan replays.
  const auto& cfg = d_.config();
  std::size_t total = cfg.partitions;
  std::size_t live = total;
  std::vector<bool> removed(total, false);
  const auto bad = [&](const std::string& why) {
    throw std::invalid_argument("fault plan \"" + plan_.name + "\" " + why);
  };
  const auto check = [&](const FaultTarget& t) {
    switch (t.kind) {
      case FaultTarget::Kind::kReplica:
        if (t.partition >= total || t.replica >= cfg.replicas_per_partition) {
          bad("targets p" + std::to_string(t.partition) + "r" + std::to_string(t.replica) +
              " but the deployment has " + std::to_string(total) + " partitions x " +
              std::to_string(cfg.replicas_per_partition) + " replicas at that point");
        }
        break;
      case FaultTarget::Kind::kOracleReplica:
        if (t.replica >= cfg.oracle_replicas) {
          bad("targets oracle" + std::to_string(t.replica) + " but the oracle has " +
              std::to_string(cfg.oracle_replicas) + " replicas");
        }
        break;
      case FaultTarget::Kind::kPartition:
        if (t.partition >= total) {
          bad("targets p" + std::to_string(t.partition) + " but the deployment has " +
              std::to_string(total) + " partitions at that point");
        }
        break;
      case FaultTarget::Kind::kOracle:
      case FaultTarget::Kind::kLastVictim:
        break;
    }
  };
  for (const FaultEvent& e : plan_.events) {
    if (e.action == FaultAction::kAddPartition) {
      ++total;
      ++live;
      removed.push_back(false);
      continue;
    }
    check(e.target);
    for (const FaultTarget& t : e.side_a) check(t);
    for (const FaultTarget& t : e.side_b) check(t);
    if (e.action == FaultAction::kRemovePartition) {
      if (removed[e.target.partition]) {
        bad("removes partition " + std::to_string(e.target.partition) + " twice");
      }
      if (live <= 1) bad("would drain the last live partition");
      removed[e.target.partition] = true;
      --live;
    }
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
      return down_.empty() ? nullptr : down_.back();
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

FaultTarget Nemesis::group_of(const Node& n) const {
  for (std::uint32_t p = 0; p < d_.partition_count(); ++p) {
    if (d_.partition_gid(p) == n.group()) {
      return {.kind = FaultTarget::Kind::kPartition, .partition = p};
    }
  }
  return {.kind = FaultTarget::Kind::kOracle};
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
  d_.metrics().inc(is_scale(e.action) ? "elastic.plan_events" : "faults.events_injected");
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
    case FaultAction::kAddPartition:
      do_add();
      break;
    case FaultAction::kRemovePartition:
      do_remove(e.target.partition);
      break;
  }
}

bool Nemesis::do_crash(Node& n) {
  if (n.halted()) return false;  // crashing a corpse is a no-op, not a new window
  d_.network().crash(n.pid());
  n.halt_node();
  down_.push_back(&n);
  d_.metrics().inc("faults.crashes");
  d_.metrics().spans().record(stats::InstantKind::kFaultInject, d_.engine().now(),
                              n.pid().value, 0, 0,
                              "crash pid=" + std::to_string(n.pid().value));
  window_open();
  // A crash that takes the group from a majority to one short of it is a
  // quorum loss: the group orders nothing until a recovery, which is no
  // failover. Counted once per loss: crashing a survivor too adds nothing.
  const FaultTarget group = group_of(n);
  const std::vector<Node*> members = group_members(group);
  const auto live = std::ranges::count_if(members, [](const Node* m) { return !m->halted(); });
  if (static_cast<std::size_t>(live) != members.size() / 2) return false;
  d_.metrics().inc("faults.quorum_lost");
  mark("quorum lost: " + group_name(group) + " has " + std::to_string(live) + " of " +
       std::to_string(members.size()) + " replicas live");
  return true;
}

void Nemesis::do_recover(Node& n) {
  if (!n.halted()) return;
  std::erase(down_, &n);
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
  // A group left without a quorum elects nobody: its next leader comes only
  // after a recovery, so that wait is a restart, not an election.
  const char* waited =
      do_crash(*leader) ? "faults.time_to_restart_us" : "faults.time_to_new_leader_us";
  d_.metrics().inc("faults.leader_kills");
  poll(
      [this, members = std::move(members), killed_at, waited] {
        for (Node* m : members) {
          if (!m->halted() && m->is_leader()) {
            d_.metrics().histogram(waited).record(d_.engine().now() - killed_at);
            return true;
          }
        }
        return false;
      },
      "faults.poll_expired", "a new leader of " + group_name(e.target), kPollLimit);
}

void Nemesis::poll(std::function<bool()> done, const char* expired, std::string what,
                   int polls_left) {
  if (done()) return;
  if (polls_left <= 0) {
    d_.metrics().inc(expired);
    mark("gave up waiting for " + what);
    return;
  }
  d_.engine().schedule(kPoll, [this, done = std::move(done), expired, what = std::move(what),
                               polls_left]() mutable {
    poll(std::move(done), expired, std::move(what), polls_left - 1);
  });
}

void Nemesis::mark(std::string label) {
  d_.metrics().spans().record(stats::InstantKind::kMark, d_.engine().now(), 0, 0, 0,
                              std::move(label));
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

void Nemesis::do_add() {
  const std::size_t index = d_.partition_count();
  const GroupId gid = d_.add_partition();
  mark("scale-out: partition " + std::to_string(index) + " booted");
  submit_on_leader(gid, core::kReconfigAdd);
}

void Nemesis::do_remove(std::size_t partition) {
  DSSMR_ASSERT_MSG(!d_.partition_retired(partition), "partition retired twice");
  ++pending_removes_;
  mark("scale-in: partition " + std::to_string(partition) + " draining");
  submit_on_leader(d_.partition_gid(partition), core::kReconfigRetire);
  poll(
      [this, partition, submitted_at = d_.engine().now()] {
        if (!d_.partition_drained(partition)) return false;
        d_.metrics().histogram("elastic.drain_time_us")
            .record(d_.engine().now() - submitted_at);
        d_.finish_retire(partition);
        d_.metrics().spans().record(
            stats::InstantKind::kPartitionRetired, d_.engine().now(), 0, 0,
            static_cast<std::int64_t>(d_.partition_gid(partition).value),
            "scale-in: partition " + std::to_string(partition) + " retired");
        --pending_removes_;
        watchdog(partition, kWatchdogPolls);
        return true;
      },
      "elastic.poll_expired", "the drain of partition " + std::to_string(partition),
      kPollLimit);
}

void Nemesis::submit_on_leader(GroupId target, std::uint32_t op) {
  poll(
      [this, target, op] {
        for (std::size_t r = 0; r < d_.config().oracle_replicas; ++r) {
          core::OracleNode& o = d_.oracle(r);
          if (!o.halted() && o.is_leader()) {
            o.submit_reconfig(target, op);
            return true;
          }
        }
        return false;
      },
      "elastic.poll_expired", "an oracle leader to submit a reconfig", kPollLimit);
}

void Nemesis::watchdog(std::size_t partition, int polls_left) {
  if (polls_left <= 0) return;
  d_.engine().schedule(kWatchdogPoll, [this, partition, polls_left] {
    if (!d_.partition_drained(partition)) {
      // A straggler move (issued against a pre-drain prophecy) landed
      // variables on the retired partition. The retire record is idempotent:
      // re-delivering it re-sweeps whatever is mapped there now.
      d_.metrics().inc("elastic.straggler_sweeps");
      mark("scale-in: straggler re-sweep of partition " + std::to_string(partition));
      submit_on_leader(d_.partition_gid(partition), core::kReconfigRetire);
    }
    watchdog(partition, polls_left - 1);
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
