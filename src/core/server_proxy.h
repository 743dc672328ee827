// Partition server proxy (Algorithm "DS-SMR Server Proxy" of the paper).
//
// One PartitionServer instance is one replica of one state partition. It
// owns a slice of the application state and processes atomically delivered
// commands in order:
//
//  * access, single destination (the DS-SMR fast path): delivered commands
//    are checked against the store's claims — a command whose variables all
//    live here executes locally like classic SMR; otherwise the client gets
//    `retry` (its oracle information was stale).
//  * access, multiple destinations (the S-SMR baseline and DS-SMR's
//    fall-back): partitions exchange variables + signals (VarShipMsg) and
//    only execute once every involved partition has checked in — the
//    execution-atomic protocol of S-SMR.
//  * move, bare (an oracle rebalance chunk) or fused (an access that rides
//    its own move, multicast to sources ∪ {destination, oracle}): sources
//    relinquish ownership at delivery and ship the values as soon as they are
//    final (ExecutionEngine::when_settled); the destination claims the
//    variables at delivery, waits for one shipment per source, installs the
//    values, executes a fused move's command, and answers the requester.
//  A variable shipped for the S-SMR exchange or a move is final once no task
//  delivered before the shipping command that touches it is still queued or
//  running here, so it ships then, not when that command reaches the head of
//  this partition's queue.
//  * create/delete: apply locally, then signal the oracle, which sends the
//    client its reply only after the partition has checked in.
//
// A replica's state is one table, smr::VariableStore: per variable, the
// delivery that claimed it and its value. Claims change at delivery, in the
// same order on every replica; values change when tasks run, which replicas
// do at different times. So a decision taken at delivery reads claims, a task
// reads values, and a task gives up only its own claim. What a command
// waits for (peer shipments) and whether it is queued live in the execution
// engine's record of that command.
//
// Replies are sent by the replica that currently leads the partition's Paxos
// group; the others hold theirs until they hear that leader again, and send
// them if they are elected first (GroupNode::leader_action). A bounded window
// of settled logical command ids catches duplicated deliveries (client
// retries); the reply payload to resend is kept only for each requester's
// latest settled access and move (bare or fused), the only retransmissions a
// requester still waits for.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/bounded.h"
#include "common/flat_map.h"
#include "common/small_set.h"
#include "common/types.h"
#include "multicast/atomic.h"
#include "smr/app.h"
#include "smr/command.h"
#include "smr/execution.h"
#include "stats/metrics.h"

namespace dssmr::core {

struct PartitionServerConfig {
  /// Capacity of the bounded window of settled commands (`completed_`).
  /// Tests shrink it to force eviction and exercise the per-requester dedup
  /// fallback.
  std::size_t reply_cache_capacity = 1 << 15;
};

class PartitionServer : public multicast::GroupNode {
 public:
  /// `index` is the partition's dense index in the deployment;
  /// `oracle_group` is where create/delete signals go.
  void init_partition(net::Network& network, const multicast::Directory& directory,
                      GroupId gid, std::size_t index, GroupId oracle_group,
                      multicast::GroupNodeConfig node_config,
                      const smr::AppFactory& app_factory, PartitionServerConfig config,
                      stats::Metrics& metrics, std::uint64_t seed);

  /// Pre-loads a variable (initial state distribution, before start()).
  void preload(VarId v, std::unique_ptr<smr::VarValue> value);

  /// Ownership and values (see smr::VariableStore).
  const smr::VariableStore& store() const { return store_; }
  std::uint64_t executed_count() const { return exec_->executed_count(); }
  Duration busy_time() const { return exec_->busy_time(); }

  /// Telemetry gauges (see harness/deployment.cpp).
  std::size_t queue_depth() const { return exec_->queue_depth(); }
  std::size_t reply_cache_size() const { return completed_.size(); }
  /// Requesters with a settled command here (see `sessions_`).
  std::size_t session_count() const { return sessions_.size(); }

  /// Elastic retirement: the partition has drained and left the deployment.
  /// It keeps participating in multicast (commands already addressed to it
  /// must still deliver, and S-SMR peers must not stall waiting for its
  /// shipments) but answers kRetired instead of kRetry, steering clients back
  /// to the oracle. Straggler moves that land variables here afterwards are
  /// still accepted — rejecting them would drop the shipped values — and the
  /// Nemesis's drain watchdog re-sweeps them off.
  void set_retired() { retired_ = true; }
  bool retired() const { return retired_; }

 protected:
  void on_amdeliver(const multicast::AmcastMessage& m) override;
  void on_rmdeliver(ProcessId origin, const net::MessagePtr& payload) override;

 private:
  /// What a reply settles here: nothing (a retry answer), or the requester's
  /// access or move. A settled command enters `completed_` and its
  /// requester's session.
  enum class Settles : std::uint8_t { kNothing, kAccess, kMove };

  /// `client` is where the command's replies go.
  void deliver_access_single(const smr::Command& cmd, ProcessId client);
  void deliver_access_multi(const multicast::AmcastMessage& m, const smr::Command& cmd,
                            ProcessId client);
  /// A bare kMove or a fused move (smr::Command::fused_move).
  void deliver_move(const smr::Command& cmd, ProcessId client);
  void deliver_create(const smr::Command& cmd);
  void deliver_delete(const smr::Command& cmd);

  /// Settles the command per `settles` and sends its reply to `client`
  /// (GroupNode::send_reply); nothing is sent when `client` is kNoProcess.
  void reply_to(ProcessId client, const smr::Command& cmd, smr::ReplyCode code,
                net::MessagePtr app_reply, smr::ReplyTiming timing, Settles settles);
  /// Queues a command's task: it waits for the inputs of `awaits`, occupies
  /// the CPU for `service`, records the queue and execute spans and then runs
  /// `body(timing)`. The command is exec_->pending() until then. `touches`
  /// (sorted) are the variables `body` may read or write.
  template <class Body>
  void execute(MsgId id, std::uint64_t trace_id, Time delivered, Duration service,
               common::SmallSet<GroupId> awaits, std::vector<VarId> touches, Body body,
               std::int64_t span_arg = 0);
  /// Clones of the values of `vars` this replica holds, to ship.
  std::vector<std::pair<VarId, std::shared_ptr<const smr::VarValue>>> snapshot(
      const std::vector<VarId>& vars) const;
  /// Leader-gated like bump(): counts a delivered command (single or multi
  /// partition) or one side of a move, and records it in this partition's
  /// windowed heat (stats::Recorder) in the same call, so the heat's
  /// per-window sums tile the `server.*` counters by construction.
  void count_command(bool multi);
  void count_move(bool dest);

  /// Claims and values. A failed install gives its claim up when its task
  /// runs, and replicas run tasks at different times relative to
  /// deliveries, so it releases only while its own claim stands: a later
  /// delivery may have re-claimed or moved the variable in the meantime.
  smr::VariableStore store_;
  std::unique_ptr<smr::AppStateMachine> app_;
  /// Also the record of each queued command: its peer shipments, and whether
  /// it is pending. A client that retransmits re-multicasts under a fresh
  /// multicast id, so the amcast layer cannot dedup; a delivery whose command
  /// is pending is dropped, or it would enqueue a second task (double
  /// execution for accesses, and a task that waits forever for
  /// already-consumed shipments for moves). It also decides when a shipped
  /// value is final (when_settled).
  std::unique_ptr<smr::ExecutionEngine> exec_;
  /// Logical ids of the commands settled here (outcomes only, no payloads),
  /// including moves whose source shipped and failed moves: a retransmission
  /// or a late VarShipMsg of one of them is not processed. A failed move's
  /// sources have shipped, so a retransmission that claimed again would wait
  /// for shipments that never come.
  BoundedSet<MsgId> completed_{1 << 15};
  /// A requester's latest settled command of one kind, with the reply to
  /// resend for it: the original smr::ReplyMsg, so a retransmitted reply
  /// carries the original execution's timestamps (the client clamps stale
  /// ones into its own window). Command ids are never 0, so 0 means none yet.
  struct Settled {
    MsgId id{};
    net::MessagePtr reply;
  };
  /// Per requester (the process its replies go to), updated on every replica
  /// so the state survives leader changes. A requester waits for one reply at
  /// a time and ignores any other, so only the latest settled command's
  /// payload is worth resending; a `completed_` hit for an older one is
  /// dropped unanswered. State is one entry per requester process, however
  /// many commands it issues.
  ///
  /// `access` is also the at-most-once backstop for accesses. `completed_` is
  /// bounded, so under heavy load a slow (not lost) retransmission can arrive
  /// after its entry was evicted and execute a second time. A client's access
  /// ids are monotone and clients are closed-loop (a client issues access N+1
  /// only after access N's final reply), so `access` keeps the highest settled
  /// id, and a delivered access at or below it is a stale retransmission —
  /// answer it on an exact id match, drop it silently otherwise.
  ///
  /// `move` is simply the move settled last. A fused move carries a fresh id
  /// per attempt, above its command's own id, and a failed attempt is
  /// followed by a retry under that smaller id, so moves stay outside the
  /// access backstop. A fused move that executed raises `access` to its
  /// command's own id instead.
  ///
  /// `fused` is the backstop for fused moves: the highest attempt id the
  /// requester has had delivered here, as a source or as the destination,
  /// raised at delivery. A fresh attempt is above it at every partition it
  /// involves: the requester sends an attempt only after the previous one's
  /// reply, which its destination sends after every source shipped, that is
  /// after every involved partition delivered it. Every copy of an attempt
  /// goes to the same groups, so every involved partition delivers the same
  /// copy first and drops the others, whatever `completed_` still holds:
  /// sources never give the variables up twice, and the destination never
  /// claims them again (no source would ship) or runs the command twice.
  struct Session {
    Settled access;
    Settled move;
    MsgId fused{};
  };
  common::FlatMap<ProcessId, Session> sessions_;
  GroupId oracle_group_ = kNoGroup;
  /// Dense partition index, the deployment's (indexes the heat table).
  std::size_t index_ = 0;
  /// See set_retired().
  bool retired_ = false;

  /// Interned counter handles (see ClientProxy::Counters).
  struct Counters {
    stats::Counter* retries_issued;
    stats::Counter* single_partition;
    stats::Counter* multi_partition;
    stats::Counter* moves_source;
    stats::Counter* moves_dest;
    stats::Counter* moves_failed;
    stats::Counter* creates;
    stats::Counter* deletes;
  } ctr_{};
};

}  // namespace dssmr::core
