// Genuine atomic multicast across groups (Section 2.4 of the paper),
// implemented Skeen-style over the per-group Paxos logs.
//
// Protocol, per destination group g of message m:
//   1. The submitter gets a StampEntry(m) sequenced in g's log. Processing it
//      advances g's logical clock and assigns m's local timestamp ts_g(m).
//      All replicas of g derive the same clock because they consume the same
//      log. If m addresses only g, ts_g(m) is final immediately.
//   2. For multi-group messages, g's current leader submits TsEntry(m, g,
//      ts_g(m)) into every other destination group's log (retried across
//      leader changes; receivers deduplicate). A pull path (TsQuery) covers
//      the corner where a group delivered m and stopped pushing while a peer
//      group still lacks its timestamp.
//   3. When g has processed timestamps from all of m.dests, the final
//      timestamp is their maximum, and m is delivered once no other pending
//      message can precede it: every other stamped-but-undelivered message's
//      timestamp lower bound must exceed (final_ts(m), m.id). Messages not
//      yet stamped cannot overtake, because stamping always exceeds the
//      clock, which is >= final_ts(m) by the time m finalizes.
//
// This yields integrity, uniform agreement (from Paxos), acyclic delivery
// order and prefix order — exactly the primitive S-SMR/DS-SMR assume.
//
// GroupNode bundles one Paxos replica + the amcast state machine + a
// reliable-multicast engine into a single simulated process; the SMR server
// proxy and the oracle replica derive from it. What only a group's leader
// does — proposing a submission, answering a direct consult, replying to a
// client — a follower holds instead of dropping, and acts on if it is
// elected before it hears the leader again (PaxosCore::submit,
// GroupNode::leader_action), so a leader crash costs one election.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "common/bounded.h"
#include "common/types.h"
#include "consensus/paxos.h"
#include "multicast/batcher.h"
#include "multicast/directory.h"
#include "multicast/messages.h"
#include "multicast/reliable.h"
#include "net/network.h"
#include "sim/engine.h"
#include "stats/metrics.h"
#include "stats/span.h"

namespace dssmr::multicast {

/// Pull request for a missing timestamp (see step 2 above).
struct TsQuery final : net::Message {
  MsgId mid;
  GroupId requester;
  TsQuery(MsgId m, GroupId r) : mid(m), requester(r) {}
  const char* type_name() const override { return "amcast.tsquery"; }
  std::size_t size_bytes() const override { return 24; }
};

class GroupNode;

/// The amcast state machine of one replica. It delivers into, submits and
/// queries through, and asks leadership of the GroupNode that owns it.
class AmcastCore {
 public:
  explicit AmcastCore(GroupNode& node);

  /// Consumes one decided log entry (in log order). Returns false if the
  /// entry's payload is not an amcast entry type.
  bool on_log_entry(const consensus::LogEntry& entry);

  /// Re-issues timestamp propagation for unfinished messages; call when this
  /// replica gains leadership.
  void on_gained_leadership();

  /// This group's timestamp for `mid`, if it stamped the message recently
  /// (pending now, or delivered within the retention window).
  std::optional<std::uint64_t> lookup_ts(MsgId mid) const;

  void halt();
  /// Undoes halt(): re-arms the timestamp-retry timer. Pending state is kept
  /// — the replica re-learns any missed log entries through Paxos and the
  /// dedup here absorbs the replay.
  void restart();

  std::uint64_t delivered_count() const { return delivered_count_; }
  std::size_t pending_count() const { return pending_.size(); }
  std::uint64_t clock() const { return clock_; }

 private:
  struct Pending {
    std::optional<AmcastMessage> msg;       // known once stamped here
    std::optional<std::uint64_t> local_ts;  // our group's timestamp
    std::map<GroupId, std::uint64_t> ts;    // per-group timestamps seen
    std::optional<std::uint64_t> final_ts;
    Time stamped_at = 0;
    /// Lower bound on the final timestamp given current knowledge.
    std::uint64_t bound() const;
  };

  void process_stamp(const StampEntry& e);
  void process_ts(const TsEntry& e);
  void maybe_finalize(Pending& p);
  void push_ts(MsgId mid, const Pending& p, bool pull_missing);
  void try_deliver();
  void arm_retry_timer();

  GroupNode& node_;
  sim::Engine& engine_;
  GroupId self_group_;
  bool halted_ = false;

  std::uint64_t clock_ = 0;
  std::map<MsgId, Pending> pending_;
  BoundedSet<MsgId> delivered_;
  BoundedMap<MsgId, std::uint64_t> delivered_ts_;
  std::uint64_t delivered_count_ = 0;
  sim::TimerId retry_timer_ = 0;
};

// ---------------------------------------------------------------------------

struct GroupNodeConfig {
  consensus::PaxosConfig paxos;
  /// Reliable-multicast flooding (turn off in crash-free perf runs).
  bool rmcast_relay = true;
  /// Server-tier submission batching: remote submissions (timestamp pushes,
  /// stamp re-disseminations) queue in an embedded SubmitBatcher instead of
  /// fanning out per entry. Off by default — the node then constructs no
  /// batcher and the message schedule matches the pre-batching code exactly.
  BatchConfig batching;
};

/// A replica process belonging to exactly one multicast group.
class GroupNode : public net::Actor {
 public:
  GroupNode() = default;
  ~GroupNode() override = default;

  /// Two-phase init: the node must already be registered with the network
  /// (so pid() is valid) and `directory` must already contain the group.
  /// `metrics` is the deployment-wide registry (tests pass a local one): the
  /// node interns a leader-gated `amcast.delivered` counter bumped once per group
  /// delivery, and records leader-gated events into its store: a kAmcast
  /// span covering stamp -> delivery for each traced payload (record_span),
  /// kAmcastDeliver and kLeaderChange instants.
  void init_group_node(net::Network& network, const Directory& directory, GroupId gid,
                       GroupNodeConfig config, stats::Metrics& metrics, std::uint64_t seed);

  /// Arms Paxos timers; call on every node after the whole deployment is wired.
  virtual void start();

  /// Stops timers and silences the node (simulated crash, usually together
  /// with Network::crash). A halted node processes no messages at all: even
  /// if the network still delivers to it, it answers nothing.
  void halt_node();

  /// Rejoins after halt_node(): the node comes back as a follower and
  /// re-learns the log it missed via Paxos catch-up. Pair with
  /// Network::recover when the crash also cut the network.
  void restart_node();

  bool halted() const { return halted_; }

  void on_message(ProcessId from, const net::MessagePtr& m) final;

  GroupId group() const { return gid_; }
  bool is_leader() const { return paxos_ != nullptr && paxos_->is_leader(); }
  const Directory& directory() const { return *directory_; }
  net::Network& network() { return *network_; }
  sim::Engine& engine() { return network_->engine(); }

  /// Atomically multicasts `payload` to `dests` (this node acts as submitter;
  /// used by servers that originate commands, e.g. an oracle issuing moves).
  MsgId amcast(std::vector<GroupId> dests, net::MessagePtr payload);

  /// Reliably multicasts to the members of `dests`.
  void rmcast(std::vector<GroupId> dests, net::MessagePtr payload);

  /// Point-to-point message (replies to clients).
  void send_direct(ProcessId to, net::MessagePtr payload);

  std::uint64_t amcast_delivered() const { return amcast_->delivered_count(); }
  /// Stamped-but-undelivered multicasts at this replica (telemetry gauge).
  std::size_t amcast_pending() const { return amcast_->pending_count(); }
  /// Undecided Paxos proposals in flight here (telemetry gauge; nonzero only
  /// while leading).
  std::size_t paxos_inflight() const { return paxos_->inflight_proposals(); }
  /// Entries queued in the embedded server-tier batcher (0 when batching is
  /// off or nothing is queued).
  std::size_t batch_pending() const {
    return batcher_ != nullptr ? batcher_->pending_entries() : 0;
  }

 protected:
  /// Atomic delivery hook — same sequence on every group member.
  virtual void on_amdeliver(const AmcastMessage& m) = 0;
  /// Reliable delivery hook.
  virtual void on_rmdeliver(ProcessId origin, const net::MessagePtr& payload) = 0;
  /// Everything that is not consensus/multicast traffic, including each
  /// entry of a DirectBatchMsg (with `from` = the entry's origin).
  virtual void on_direct(ProcessId from, const net::MessagePtr& m) {
    (void)from;
    (void)m;
  }

  MsgId next_msg_id();

  /// The registry wired at init.
  stats::Metrics& metrics() const { return *metrics_; }

  /// Leader-gated so deployment-wide counters are per-event, not per-replica.
  void bump(stats::Counter* c) {
    if (is_leader()) c->inc();
  }

  /// Runs `action` now if this replica leads its group; otherwise holds it.
  /// For what only the leader does. The leader runs its own copy, so a held
  /// action is dropped once the leader is heard from again; a replica that
  /// is elected first runs the actions it held since it last heard the old
  /// leader. Acting twice must be harmless: clients ignore a reply or a
  /// prophecy they no longer await.
  void leader_action(sim::Callback action);

  /// Sends `reply` to process `to` from the group's leader (held on a
  /// follower, see leader_action): the one path for a group's answers to
  /// clients — command replies and the oracle's create/delete replies.
  void send_reply(ProcessId to, net::MessagePtr reply);

  /// Records an instant into the deployment's event store, leader-gated so
  /// a group event is recorded once, not once per replica.
  void record_instant(stats::InstantKind kind, std::uint64_t id, std::int64_t arg = 0,
                      std::string label = {});

  /// Records this group's view of a traced command's phase into the event
  /// store: leader-gated like record_instant, nothing for an untraced
  /// command (`trace_id` 0), and never folded into the phase histograms —
  /// the client attributes that time itself (from the reply's timestamps or
  /// its own clock), so a folded server view would count it twice.
  void record_span(stats::SpanPhase phase, std::uint64_t trace_id, Time start, Time end,
                   std::int64_t arg = 0);

 private:
  friend class AmcastCore;

  /// Atomic delivery, in the group's total order. `stamped_at` is when this
  /// group stamped the message (step 1): m spent now - stamped_at in the
  /// multicast here.
  void deliver_amcast(const AmcastMessage& m, Time stamped_at);
  /// Submits `entry` for sequencing in group `g` (leader duty).
  void submit_local_or_remote(GroupId g, consensus::LogEntry entry);
  /// Asks the members of group `g` for their timestamp of `mid`.
  void query_ts(GroupId g, MsgId mid);
  void run_held_actions();

  net::Network* network_ = nullptr;
  const Directory* directory_ = nullptr;
  GroupId gid_ = kNoGroup;
  GroupNodeConfig config_;
  bool halted_ = false;
  std::unique_ptr<consensus::PaxosCore> paxos_;
  std::unique_ptr<AmcastCore> amcast_;
  std::unique_ptr<RmcastEngine> rmcast_;
  /// Server-tier submission batcher; null unless config_.batching enables it.
  std::unique_ptr<SubmitBatcher> batcher_;
  stats::Metrics* metrics_ = nullptr;
  /// Interned at init.
  stats::Counter* delivered_ctr_ = nullptr;
  std::uint64_t next_msg_seq_ = 0;
  /// leader_action()s held while following, with the time each was held; at
  /// most kHeldActions (the oldest go first), like PaxosCore's held entries.
  static constexpr std::size_t kHeldActions = 4096;
  std::deque<std::pair<Time, sim::Callback>> held_actions_;
};

}  // namespace dssmr::multicast
