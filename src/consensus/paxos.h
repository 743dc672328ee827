// Multi-Paxos replicated log, one instance per multicast group.
//
// This is the repository's substitute for the paper's URingPaxos deployment:
// each partition (and the oracle) is a group of replicas that agree on a
// totally ordered log of batches. The atomic-multicast layer consumes this
// log; it never talks to Paxos internals directly.
//
// Design notes:
//  * Leader-based. Ballot numbers encode (round, member-index); the member
//    with the highest granted ballot leads, proposes batches into slots, and
//    broadcasts commits. Followers monitor heartbeats and run an election
//    (phase 1) after a randomized timeout.
//  * Batching: the leader batches only behind proposals already in flight.
//    A submission that finds none is proposed at the end of the current
//    instant, together with whatever else arrived in that instant; one that
//    finds some waits until a decision lands (which proposes the backlog at
//    once), `max_batch` entries accumulate, or `batch_delay` passes. So a
//    lone entry pays no batching wait, and under load slots still carry
//    many entries, which is both realistic (Ring Paxos batches aggressively)
//    and essential for simulation speed.
//  * Uniform agreement: a value is committed only after a majority accepted
//    it, so any later leader's phase 1 re-discovers it.
//  * Each slot is held once: accepted_ until it is decided, then decided_
//    alone (phase 1 reports a decided slot from decided_, so its accepted
//    copy is never read again). A decided batch is immutable and shared:
//    the commit messages carry the leader's copy, and every replica that
//    learns the slot from one keeps that same copy. The decided log is a
//    slot-indexed window starting at the trim point: it keeps a
//    retransmission window of `retain_window` delivered slots for catch-up
//    requests plus every slot decided above the delivery point, and scans of
//    it start at the first slot they need instead of walking the retained
//    window.
//  * Submissions outlive their leader. Senders address a submission to every
//    member; a follower cannot propose it, so it holds it until a decide
//    carries it (on every replica) or this replica is elected. A new leader
//    proposes, after phase 1 and in arrival order, every held entry that the
//    recovered slots do not carry. So work in flight to a crashed leader
//    costs one election, not the sender's retransmission timeout. A held
//    entry that was in fact decided already is re-proposed; the multicast
//    layer drops the duplicate at delivery.
//
// PaxosCore is deliberately not a net::Actor: the owning replica feeds it
// messages and it emits messages through a callback, which keeps it unit
// testable without a full deployment.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/bounded.h"
#include "common/flat_map.h"
#include "common/rng.h"
#include "common/small_set.h"
#include "common/types.h"
#include "net/message.h"
#include "sim/engine.h"

namespace dssmr::consensus {

using Slot = std::uint64_t;
/// Ballot = (round << 16) | owner-member-index. 0 means "none".
using Ballot = std::uint64_t;

constexpr Ballot make_ballot(std::uint64_t round, std::uint32_t owner_index) {
  return (round << 16) | owner_index;
}
constexpr std::uint64_t ballot_round(Ballot b) { return b >> 16; }
constexpr std::uint32_t ballot_owner_index(Ballot b) {
  return static_cast<std::uint32_t>(b & 0xffff);
}

/// One submitted value. `id` is globally unique and used by upper layers to
/// deduplicate entries that get re-proposed across leader changes.
struct LogEntry {
  MsgId id;
  net::MessagePtr payload;
};

using Batch = std::vector<LogEntry>;
/// A decided batch: immutable, so every replica of a group (and every commit
/// message carrying it) shares one copy.
using SharedBatch = std::shared_ptr<const Batch>;

struct PaxosConfig {
  /// Longest a submission waits behind in-flight proposals before the leader
  /// proposes it. With nothing in flight it is proposed within the instant,
  /// and a decision proposes the backlog at once, so this bounds only the
  /// wait behind a slow slot.
  Duration batch_delay = usec(100);
  std::size_t max_batch = 64;
  /// Decided slots kept behind the delivery point for catch-up.
  Slot retain_window = 4096;
};

// ---- wire messages ---------------------------------------------------------

struct P1a final : net::Message {
  GroupId gid;
  Ballot ballot;
  Slot committed;  // candidate's delivery point, bounds the P1b payload
  P1a(GroupId g, Ballot b, Slot c) : gid(g), ballot(b), committed(c) {}
  const char* type_name() const override { return "paxos.p1a"; }
};

struct P1b final : net::Message {
  GroupId gid;
  Ballot ballot;
  bool granted;
  Slot committed;
  std::map<Slot, std::pair<Ballot, Batch>> accepted;
  P1b(GroupId g, Ballot b, bool ok, Slot c, std::map<Slot, std::pair<Ballot, Batch>> acc)
      : gid(g), ballot(b), granted(ok), committed(c), accepted(std::move(acc)) {}
  const char* type_name() const override { return "paxos.p1b"; }
  std::size_t size_bytes() const override;
};

struct P2a final : net::Message {
  GroupId gid;
  Ballot ballot;
  Slot slot;
  Batch batch;
  P2a(GroupId g, Ballot b, Slot s, Batch bt) : gid(g), ballot(b), slot(s), batch(std::move(bt)) {}
  const char* type_name() const override { return "paxos.p2a"; }
  std::size_t size_bytes() const override;
};

struct P2b final : net::Message {
  GroupId gid;
  Ballot ballot;
  Slot slot;
  bool accepted;
  P2b(GroupId g, Ballot b, Slot s, bool ok) : gid(g), ballot(b), slot(s), accepted(ok) {}
  const char* type_name() const override { return "paxos.p2b"; }
};

struct CommitMsg final : net::Message {
  GroupId gid;
  Slot slot;
  SharedBatch batch;
  CommitMsg(GroupId g, Slot s, SharedBatch b) : gid(g), slot(s), batch(std::move(b)) {}
  const char* type_name() const override { return "paxos.commit"; }
  std::size_t size_bytes() const override;
};

struct HeartbeatMsg final : net::Message {
  GroupId gid;
  Ballot ballot;
  Slot committed;
  HeartbeatMsg(GroupId g, Ballot b, Slot c) : gid(g), ballot(b), committed(c) {}
  const char* type_name() const override { return "paxos.heartbeat"; }
};

struct LearnReq final : net::Message {
  GroupId gid;
  Slot from;
  LearnReq(GroupId g, Slot f) : gid(g), from(f) {}
  const char* type_name() const override { return "paxos.learnreq"; }
};

// ---- core ------------------------------------------------------------------

class PaxosCore {
 public:
  struct Callbacks {
    /// Emits a protocol message to a peer (never called for self).
    std::function<void(ProcessId to, net::MessagePtr)> send;
    /// Delivers decided batches in strict slot order, exactly once.
    std::function<void(Slot slot, const Batch& batch)> on_decide;
    /// Optional: leadership gained/lost notification.
    std::function<void(bool leading)> on_leadership;
  };

  PaxosCore(sim::Engine& engine, GroupId gid, std::vector<ProcessId> members, ProcessId self,
            PaxosConfig config, Callbacks callbacks, std::uint64_t seed);

  /// Arms initial timers. Member 0 immediately stands for election so quiet
  /// groups get a leader without waiting for a timeout.
  void start();

  /// Submits an entry for ordering. Returns false when this replica is not
  /// currently leading: it then holds the entry, and proposes it only if it
  /// is elected before a decide carries the entry (see the design notes).
  bool submit(LogEntry entry);

  /// Routes a consensus message. Returns false if `m` is not a Paxos message
  /// for this group (so callers can try other handlers).
  bool handle(ProcessId from, const net::MessagePtr& m);

  bool is_leader() const { return role_ == Role::Leader; }
  /// Ballot of the current candidacy or leadership.
  Ballot ballot() const { return ballot_; }
  /// Undecided proposals currently in flight (telemetry; leader-side).
  std::size_t inflight_proposals() const { return proposals_.size(); }
  /// Entries buffered but not yet proposed (telemetry; leader-side).
  std::size_t pending_entries() const { return pending_.size(); }
  /// Best guess at the current leader (self while leading).
  ProcessId leader_hint() const;
  Slot delivered_upto() const { return next_deliver_ - 1; }
  /// When the current leader was last heard from (a P2a, commit or heartbeat
  /// of the highest ballot seen); 0 before any. A new leader keeps the time
  /// it last heard its predecessor.
  Time leader_heard_at() const { return leader_heard_at_; }
  /// Entries held for a future leader (see submit()).
  std::size_t held_entries() const { return held_ids_.size(); }
  GroupId group() const { return gid_; }
  const std::vector<ProcessId>& members() const { return members_; }

  /// Stops all timers; the replica is considered crashed (tests use this to
  /// silence a node without tearing down the object).
  void halt();

  /// Rejoins after halt(): back to follower, proposer-side state wiped.
  /// Acceptor state (promised ballot, accepted slots) survives — it is the
  /// "stable storage" that makes crash-recovery safe — and the missed log
  /// tail is re-learned through the existing heartbeat -> LearnReq ->
  /// CommitMsg machinery. Callers pair this with Network::recover.
  void restart();

 private:
  enum class Role { Follower, Candidate, Leader };

  struct Proposal {
    Batch batch;
    common::SmallSet<std::uint32_t> acks;
  };

  std::size_t majority() const { return members_.size() / 2 + 1; }
  std::uint32_t index_of(ProcessId p) const;

  void broadcast(const net::MessagePtr& m);
  void start_election();
  void become_leader();
  void step_down(Ballot seen);

  void handle_p1a(ProcessId from, const P1a& m);
  void handle_p1b(ProcessId from, const P1b& m);
  void handle_p2a(ProcessId from, const P2a& m);
  void handle_p2b(ProcessId from, const P2b& m);
  void handle_commit(const CommitMsg& m);
  void handle_heartbeat(ProcessId from, const HeartbeatMsg& m);
  void handle_learnreq(ProcessId from, const LearnReq& m);

  void propose(Slot slot, Batch batch);
  void hold(LogEntry entry);
  void unhold(MsgId id);
  void clear_held();
  void flush_pending();
  void arm_batch_timer();
  void decide(Slot slot, SharedBatch batch, bool broadcast_commit);
  /// The decided batch of `slot`, or null if it is undecided here or trimmed.
  const Batch* decided_at(Slot slot) const;
  /// One past the highest slot decided_ holds.
  Slot decided_end() const { return decided_base_ + decided_.size(); }
  void advance_delivery();
  void trim();
  void arm_election_timer();
  void arm_heartbeat_timer();
  void arm_resend_timer();
  void maybe_request_catchup(Slot leader_committed, ProcessId from);

  sim::Engine& engine_;
  GroupId gid_;
  std::vector<ProcessId> members_;
  ProcessId self_;
  std::uint32_t self_index_;
  PaxosConfig cfg_;
  Callbacks cb_;
  Rng rng_;
  bool halted_ = false;

  // Acceptor state.
  Ballot promised_ = 0;
  /// Accepted, not yet decided here: decide() moves a slot out, and neither
  /// a P2a nor our own proposal puts a decided slot back.
  std::map<Slot, std::pair<Ballot, Batch>> accepted_;

  // Learner state.
  /// decided_[i] is slot decided_base_ + i (null: not decided here yet).
  /// trim() pops the front; a decision above the end grows the back, so no
  /// slot above the delivery point is ever dropped. advance_delivery() holds
  /// a reference to the batch itself across the re-entrant on_decide.
  std::deque<SharedBatch> decided_;
  Slot decided_base_ = 1;
  Slot next_deliver_ = 1;
  Time leader_heard_at_ = 0;

  // Proposer state.
  Role role_ = Role::Follower;
  Ballot ballot_ = 0;           // ballot of my current candidacy/leadership
  Ballot max_seen_ballot_ = 0;  // highest ballot observed anywhere
  common::SmallSet<std::uint32_t> p1b_granted_;
  std::map<Slot, std::pair<Ballot, Batch>> p1b_accepted_;
  Slot next_slot_ = 1;
  /// Undecided proposals only (decide() erases the slot): its size is the
  /// number of slots in flight, and the resend timer touches nothing else.
  std::map<Slot, Proposal> proposals_;
  Batch pending_;
  /// Entry ids submitted while leading, so a duplicate is not proposed
  /// twice. Duplicates are the same entry submitted by each replica of a
  /// sending group, or re-answered after a timestamp query: they trail the
  /// first copy by one round trip or one amcast timestamp-retry period, and
  /// 4096 ids spans far more than either at the benches' per-leader submit
  /// rates.
  /// Correctness does not rest on the window: the multicast layer drops a
  /// decided duplicate stamp or timestamp at delivery.
  BoundedSet<std::uint64_t> submitted_ids_{4096};
  /// Entries submitted while not leading, in arrival order (see submit()):
  /// held_[i] arrived as number held_base_ + i, and held_ids_ maps a held
  /// entry's id to that number. A decide nulls the entry's payload, and
  /// nulled entries leave the front at once. The window spans the last
  /// kHeldWindow arrivals, like submitted_ids_.
  static constexpr std::size_t kHeldWindow = 4096;
  std::deque<LogEntry> held_;
  std::uint64_t held_base_ = 0;
  common::FlatMap<std::uint64_t, std::uint64_t> held_ids_;

  sim::TimerId election_timer_ = 0;
  sim::TimerId heartbeat_timer_ = 0;
  sim::TimerId resend_timer_ = 0;
  sim::TimerId batch_timer_ = 0;
};

}  // namespace dssmr::consensus
