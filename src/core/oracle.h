// The replicated partitioning oracle (Algorithm "Oracle" of the paper).
//
// The oracle is deployed as its own multicast group. It answers `consult`
// requests with prophecies, tracks the dynamic variable->partition mapping
// by delivering every create/delete/move command, and coordinates with
// partitions on create/delete via signal exchange so that its reply to the
// client implies the partition has applied the change (execution atomicity).
//
// Consults arrive two ways. A command's first access consult is sent point
// to point to every replica (on_direct): the current leader answers it from
// its applied mapping, and the followers hold it in case the leader is gone
// (GroupNode::leader_action), as they do with every reply. A prophecy is
// advisory — partitions check ownership at delivery and answer `retry` — so
// this read needs no ordering. Every other consult (a re-consult after a retry, a
// failed move or a timeout, and every create/delete consult) is atomically
// multicast to the oracle group and answered at delivery, after every move
// and membership record ordered before it.
//
// Placement decisions come from the DS-SMR policy (DssmrPolicy), which
// needs no workload knowledge: clients collocate a command's variables
// themselves, with a fused move (the command multicast to its sources, its
// destination and this group), whose mapping change applies at delivery. The prophecy prefetch's co-access table is the oracle's own
// (CoAccessTable).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bounded.h"
#include "common/flat_map.h"
#include "common/small_set.h"
#include "common/types.h"
#include "core/mapping.h"
#include "multicast/atomic.h"
#include "smr/command.h"
#include "smr/execution.h"
#include "stats/metrics.h"

namespace dssmr::core {

/// Command::op values of a kReconfig membership record.
inline constexpr std::uint32_t kReconfigAdd = 0;
inline constexpr std::uint32_t kReconfigRetire = 1;

/// Prophecy prefetch (the locality fast path, see DESIGN.md): which variables
/// recent consults accessed together. Only the oracle replica that answers a
/// consult (the leader) feeds and probes it, for direct and ordered consults
/// alike, so it is best-effort, leader-local soft state that a new leader
/// rebuilds from the consults it answers. Prefetched locations are advisory,
/// so a partial table costs prefetch hits, never correctness.
class CoAccessTable {
 public:
  /// Records that `vars` were accessed by one command.
  void note(const std::vector<VarId>& vars);

  /// Appends up to `k` variables recently co-accessed with `vars` (excluding
  /// `vars` themselves, no duplicates) to `out`. Breadth-first over the
  /// rings: direct neighbours first, then neighbours-of-neighbours while
  /// budget remains — one hot command's ring members mostly repeat what the
  /// client already caches, so the transitive frontier is where the novel
  /// (cache-warming) candidates live. Deterministic.
  void candidates(const std::vector<VarId>& vars, std::size_t k,
                  std::vector<VarId>& out) const;

 private:
  /// Per-variable ring of the most recently co-accessed neighbours. Tiny and
  /// bounded: the table is a best-effort cache-warming signal, not a workload
  /// graph.
  struct Ring {
    std::array<VarId, 8> recent{};
    std::uint8_t count = 0;
    std::uint8_t next = 0;

    void push(VarId v);
  };

  /// Only the first few variables of a wide command feed/probe the table:
  /// co-access is quadratic in the fed prefix and wide commands (move bulks,
  /// timeline fan-ins) would swamp it.
  static constexpr std::size_t kFeedCap = 8;

  common::FlatMap<VarId, Ring> rings_;
};

class OracleNode : public multicast::GroupNode {
 public:
  /// `prefetch_k` > 0: prophecies carry up to that many co-accessed prefetch
  /// entries (see DESIGN.md). `elastic`: a nemesis plan may deliver membership
  /// records; only then are the elastic.* counters interned, so non-elastic
  /// run records stay byte-identical to the pre-elasticity output.
  void init_oracle(net::Network& network, const multicast::Directory& directory, GroupId gid,
                   multicast::GroupNodeConfig node_config, DssmrPolicy policy,
                   std::vector<GroupId> partitions, std::size_t prefetch_k, bool elastic,
                   stats::Metrics& metrics, std::uint64_t seed);

  /// Pre-registers a variable's location (initial state distribution).
  void preload(VarId v, GroupId p);

  /// Pre-sizes the mapping (deployments know the variable count up front).
  void reserve_vars(std::size_t n) { mapping_->reserve(n); }

  const Mapping& mapping() const { return *mapping_; }
  Duration busy_time() const { return exec_->busy_time(); }

  /// Telemetry gauge (see harness/deployment.cpp).
  std::size_t queue_depth() const { return exec_->queue_depth(); }

  /// Elastic membership entry point (called on the current leader by the
  /// Nemesis): atomically multicasts a kReconfig record to the oracle group so
  /// EVERY replica admits/drains `partition` at the same point in the
  /// delivered command order. `op` is kReconfigAdd or kReconfigRetire.
  /// Idempotent at delivery — re-submitting a retire re-sweeps whatever
  /// variables are still mapped to the draining partition (in-flight moves
  /// can land variables on it between planning and delivery).
  void submit_reconfig(GroupId partition, std::uint32_t op);

 protected:
  void on_amdeliver(const multicast::AmcastMessage& m) override;
  void on_rmdeliver(ProcessId origin, const net::MessagePtr& payload) override;
  void on_direct(ProcessId from, const net::MessagePtr& m) override;

 private:
  struct CachedReply {
    smr::ReplyCode code;
    smr::ReplyTiming timing;
  };

  void handle_consult(ProcessId client, const smr::ConsultMsg& consult);
  void handle_create_delete(const multicast::AmcastMessage& m, const smr::Command& cmd);
  void handle_move(const smr::Command& cmd);
  void handle_reconfig(const smr::Command& cmd);

  /// Rebalance planners (leader only, run while processing a delivered
  /// kReconfig): fill a fresh partition up to the per-partition quota /
  /// drain every variable off a retiring one, by issuing chunked kMove
  /// commands through the regular move machinery.
  void plan_rebalance_in(GroupId target);
  void plan_drain(GroupId retiring);
  /// One chunked rebalance move: sources = {from}, dest = to. Multicasts it
  /// to smr::move_groups and, on the leader, counts it, records a
  /// kRebalanceMove instant and adds to moves_ts.
  void issue_rebalance_move(GroupId from, GroupId to, std::vector<VarId> chunk);

  /// Queues an oracle task; one with `awaits` waits for those groups' signals
  /// for command `id`.
  void queue_reply_task(Duration service, sim::Callback run, MsgId id = MsgId{0},
                        common::SmallSet<GroupId> awaits = {});
  void account(Duration service);

  std::unique_ptr<Mapping> mapping_;
  DssmrPolicy policy_;
  std::unique_ptr<smr::ExecutionEngine> exec_;
  std::size_t prefetch_k_ = 0;
  CoAccessTable co_access_;
  BoundedMap<MsgId, CachedReply> completed_{1 << 15};

  /// Interned counter handles (see ClientProxy::Counters): consults arrive
  /// per command, so the by-name map lookup is a hot-path cost.
  struct Counters {
    stats::Counter* consults;
    stats::Counter* creates;
    stats::Counter* deletes;
    stats::Counter* moves_applied;
    stats::Counter* prefetch_sent;
    stats::Counter* partitions_added;
    stats::Counter* partitions_retired;
    stats::Counter* rebalance_moves;
    stats::Counter* rebalance_vars;
  } ctr_{};
  /// Interned series handles.
  stats::TimeSeries* busy_series_ = nullptr;
  stats::TimeSeries* moves_series_ = nullptr;
};

}  // namespace dssmr::core
