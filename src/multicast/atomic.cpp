#include "multicast/atomic.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/assert.h"

namespace dssmr::multicast {
namespace {

constexpr std::uint64_t kTsSalt = 0x75e0;
/// A leader re-pushes its unfinished timestamps every kTsRetryInterval, and
/// also re-disseminates the stamp of one pending for two periods.
constexpr Duration kTsRetryInterval = msec(50);

}  // namespace

// ---- AmcastCore ------------------------------------------------------------

AmcastCore::AmcastCore(GroupNode& node)
    : node_(node), engine_(node.engine()), self_group_(node.group()) {
  arm_retry_timer();
}

void AmcastCore::halt() {
  halted_ = true;
  engine_.cancel(retry_timer_);
  retry_timer_ = 0;
}

void AmcastCore::restart() {
  if (!halted_) return;
  halted_ = false;
  arm_retry_timer();
}

std::uint64_t AmcastCore::Pending::bound() const {
  if (final_ts) return *final_ts;
  std::uint64_t b = local_ts.value_or(0);
  for (const auto& [g, t] : ts) b = std::max(b, t);
  return b;
}

bool AmcastCore::on_log_entry(const consensus::LogEntry& entry) {
  if (const auto* stamp = net::msg_cast<StampEntry>(entry.payload)) {
    process_stamp(*stamp);
    return true;
  }
  if (const auto* ts = net::msg_cast<TsEntry>(entry.payload)) {
    process_ts(*ts);
    return true;
  }
  return false;
}

void AmcastCore::process_stamp(const StampEntry& e) {
  const MsgId mid = e.msg.id;
  if (delivered_.contains(mid)) return;  // duplicate of an already-delivered message
  Pending& p = pending_[mid];
  if (p.local_ts) return;  // duplicate stamp
  p.msg = e.msg;
  p.local_ts = ++clock_;
  p.ts[self_group_] = *p.local_ts;
  p.stamped_at = engine_.now();
  maybe_finalize(p);
  if (!p.final_ts) push_ts(mid, p, /*pull_missing=*/false);
  try_deliver();
}

void AmcastCore::process_ts(const TsEntry& e) {
  if (e.from == self_group_) return;  // should not happen; ignore defensively
  if (delivered_.contains(e.mid)) return;
  Pending& p = pending_[e.mid];
  auto [it, inserted] = p.ts.try_emplace(e.from, e.ts);
  (void)it;
  if (!inserted) return;  // duplicate timestamp
  clock_ = std::max(clock_, e.ts);
  maybe_finalize(p);
  try_deliver();
}

void AmcastCore::maybe_finalize(Pending& p) {
  if (p.final_ts || !p.msg || !p.local_ts) return;
  if (p.ts.size() != p.msg->dests.size()) return;
  std::uint64_t final = 0;
  for (const auto& [g, t] : p.ts) final = std::max(final, t);
  p.final_ts = final;
  clock_ = std::max(clock_, final);
}

void AmcastCore::push_ts(MsgId mid, const Pending& p, bool pull_missing) {
  if (halted_ || !node_.is_leader() || !p.msg || !p.local_ts) return;
  for (GroupId g : p.msg->dests) {
    if (g == self_group_) continue;
    consensus::LogEntry entry{derive_entry_id(mid, g, kTsSalt + self_group_.value),
                              net::make_msg<TsEntry>(mid, self_group_, *p.local_ts)};
    node_.submit_local_or_remote(g, std::move(entry));
    if (pull_missing && !p.ts.contains(g)) {
      // The peer group may never have received the stamp at all (the
      // submitter's messages were lost). Re-disseminate the stamp — we hold
      // the full message — and also ask for the timestamp in case the group
      // stamped it long ago and only the TsEntry got lost.
      node_.submit_local_or_remote(g, stamp_log_entry(mid, g, net::make_msg<StampEntry>(*p.msg)));
      node_.query_ts(g, mid);
    }
  }
}

std::optional<std::uint64_t> AmcastCore::lookup_ts(MsgId mid) const {
  if (auto it = pending_.find(mid); it != pending_.end() && it->second.local_ts) {
    return it->second.local_ts;
  }
  if (const std::uint64_t* ts = delivered_ts_.find(mid); ts != nullptr) return *ts;
  return std::nullopt;
}

void AmcastCore::on_gained_leadership() {
  for (const auto& [mid, p] : pending_) {
    if (p.local_ts && !p.final_ts) push_ts(mid, p, /*pull_missing=*/false);
  }
}

void AmcastCore::arm_retry_timer() {
  if (halted_) return;
  retry_timer_ = engine_.schedule(kTsRetryInterval, [this] {
    retry_timer_ = 0;
    if (halted_) return;
    if (node_.is_leader()) {
      const Time now = engine_.now();
      for (const auto& [mid, p] : pending_) {
        if (!p.local_ts || p.final_ts) continue;
        const bool stale = now - p.stamped_at > 2 * kTsRetryInterval;
        push_ts(mid, p, /*pull_missing=*/stale);
      }
    }
    arm_retry_timer();
  });
}

void AmcastCore::try_deliver() {
  for (;;) {
    // Find the stamped message with the smallest (bound, id); deliverable only
    // if its timestamp is final — anything else could still order before it.
    const Pending* best = nullptr;
    MsgId best_id{};
    for (const auto& [mid, p] : pending_) {
      if (!p.local_ts) continue;  // timestamp arrived before the stamp; not ours yet
      if (best == nullptr ||
          std::pair(p.bound(), mid.value) < std::pair(best->bound(), best_id.value)) {
        best = &p;
        best_id = mid;
      }
    }
    if (best == nullptr || !best->final_ts) return;

    AmcastMessage msg = *best->msg;
    const Time stamped_at = best->stamped_at;
    delivered_.insert(best_id);
    if (!msg.single_group()) delivered_ts_.put(best_id, *best->local_ts);
    pending_.erase(best_id);
    ++delivered_count_;
    node_.deliver_amcast(msg, stamped_at);
  }
}

// ---- GroupNode -------------------------------------------------------------

void GroupNode::init_group_node(net::Network& network, const Directory& directory,
                                GroupId gid, GroupNodeConfig config, stats::Metrics& metrics,
                                std::uint64_t seed) {
  DSSMR_ASSERT_MSG(pid() != kNoProcess, "register the node with the network first");
  network_ = &network;
  directory_ = &directory;
  gid_ = gid;
  config_ = config;
  metrics_ = &metrics;
  delivered_ctr_ = &metrics.counter_handle("amcast.delivered");

  consensus::PaxosCore::Callbacks pcb;
  pcb.send = [this](ProcessId to, net::MessagePtr m) {
    network_->send(pid(), to, std::move(m));
  };
  pcb.on_decide = [this](consensus::Slot, const consensus::Batch& batch) {
    for (const auto& entry : batch) {
      const bool consumed = amcast_->on_log_entry(entry);
      DSSMR_ASSERT_MSG(consumed, "unknown log entry payload");
    }
  };
  pcb.on_leadership = [this](bool leading) {
    if (!leading) return;
    record_instant(stats::InstantKind::kLeaderChange, gid_.value,
                   static_cast<std::int64_t>(paxos_->ballot()));
    amcast_->on_gained_leadership();
    run_held_actions();
  };
  const std::span<const ProcessId> members = directory.members(gid);
  paxos_ = std::make_unique<consensus::PaxosCore>(
      network.engine(), gid, std::vector<ProcessId>(members.begin(), members.end()), pid(),
      config.paxos, std::move(pcb), seed);

  amcast_ = std::make_unique<AmcastCore>(*this);

  rmcast_ = std::make_unique<RmcastEngine>(
      network, directory, config.rmcast_relay,
      [this](ProcessId origin, const net::MessagePtr& payload) {
        on_rmdeliver(origin, payload);
      });

  if (config_.batching.enabled()) {
    batcher_ = std::make_unique<SubmitBatcher>();
    batcher_->init(network, directory, pid(), config_.batching, metrics);
  }
}

void GroupNode::deliver_amcast(const AmcastMessage& m, Time stamped_at) {
  // Leader-gated so one event is recorded per group delivery, not one per
  // replica (matching the leader-gated metrics counters).
  bump(delivered_ctr_);
  record_instant(stats::InstantKind::kAmcastDeliver, m.id.value,
                 static_cast<std::int64_t>(m.dests.size()));
  // This group's view of the multicast: stamp -> atomic delivery. The client
  // folds its own end-to-end amcast phase.
  record_span(stats::SpanPhase::kAmcast, m.payload->trace_id(), stamped_at, engine().now(),
              static_cast<std::int64_t>(m.dests.size()));
  on_amdeliver(m);
}

void GroupNode::query_ts(GroupId g, MsgId mid) {
  auto q = net::make_msg<TsQuery>(mid, gid_);
  for (ProcessId p : directory_->members(g)) network_->send(pid(), p, q);
}

void GroupNode::start() {
  DSSMR_ASSERT_MSG(paxos_ != nullptr, "init_group_node() not called");
  paxos_->start();
}

void GroupNode::record_instant(stats::InstantKind kind, std::uint64_t id, std::int64_t arg,
                               std::string label) {
  if (!is_leader()) return;
  metrics_->spans().record(kind, network_->engine().now(), pid().value, id, arg,
                           std::move(label));
}

void GroupNode::record_span(stats::SpanPhase phase, std::uint64_t trace_id, Time start,
                            Time end, std::int64_t arg) {
  if (trace_id == 0 || !is_leader()) return;
  metrics_->spans().record({.trace_id = trace_id,
                            .phase = phase,
                            .start = start,
                            .end = end,
                            .node = pid().value,
                            .group = gid_,
                            .arg = arg},
                           /*fold=*/false);
}

void GroupNode::halt_node() {
  halted_ = true;
  held_actions_.clear();
  if (paxos_ != nullptr) paxos_->halt();
  if (amcast_ != nullptr) amcast_->halt();
  if (batcher_ != nullptr) batcher_->halt();
}

void GroupNode::restart_node() {
  if (!halted_) return;
  halted_ = false;
  held_actions_.clear();
  if (paxos_ != nullptr) paxos_->restart();
  if (amcast_ != nullptr) amcast_->restart();
  if (batcher_ != nullptr) batcher_->restart();
}

void GroupNode::on_message(ProcessId from, const net::MessagePtr& m) {
  // A crashed replica is dead by itself: without this guard only the Paxos
  // core ignored traffic, while timestamp queries, reliable-multicast relays
  // and direct messages were still served — a "crashed" node that answers.
  if (halted_) return;
  if (paxos_->handle(from, m)) return;
  // Every member takes a submission: the leader proposes it, a follower
  // holds it for a future leader.
  if (const auto* sub = net::msg_cast<SubmitToLog>(m)) {
    if (sub->gid == gid_) paxos_->submit(sub->entry);
    return;
  }
  if (const auto* batch = net::msg_cast<BatchSubmitMsg>(m)) {
    if (batch->gid == gid_) {
      for (const consensus::LogEntry& e : batch->entries) paxos_->submit(e);
    }
    return;
  }
  if (const auto* direct = net::msg_cast<DirectBatchMsg>(m)) {
    if (direct->gid == gid_) {
      for (const auto& [origin, payload] : direct->entries) on_direct(origin, payload);
    }
    return;
  }
  if (const auto* q = net::msg_cast<TsQuery>(m)) {
    if (auto ts = amcast_->lookup_ts(q->mid)) {
      consensus::LogEntry entry{derive_entry_id(q->mid, q->requester, kTsSalt + gid_.value),
                                net::make_msg<TsEntry>(q->mid, gid_, *ts)};
      submit_local_or_remote(q->requester, std::move(entry));
    }
    return;
  }
  if (rmcast_->handle(pid(), m)) return;
  on_direct(from, m);
}

void GroupNode::leader_action(sim::Callback action) {
  if (is_leader()) {
    action();
    return;
  }
  const Time heard = paxos_->leader_heard_at();
  while (!held_actions_.empty() &&
         (held_actions_.front().first < heard || held_actions_.size() >= kHeldActions)) {
    held_actions_.pop_front();
  }
  held_actions_.emplace_back(engine().now(), std::move(action));
}

void GroupNode::run_held_actions() {
  const Time heard = paxos_->leader_heard_at();
  for (auto& [held_at, action] : std::exchange(held_actions_, {})) {
    if (held_at >= heard) action();
  }
}

MsgId GroupNode::next_msg_id() {
  return MsgId{(static_cast<std::uint64_t>(pid().value) << 32) | next_msg_seq_++};
}

MsgId GroupNode::amcast(std::vector<GroupId> dests, net::MessagePtr payload) {
  normalize_dests(dests);
  AmcastMessage msg{next_msg_id(), pid(), dests, std::move(payload)};
  const MsgId id = msg.id;
  auto stamp = net::make_msg<StampEntry>(msg);
  for (GroupId g : dests) {
    submit_local_or_remote(g, stamp_log_entry(id, g, stamp));
  }
  return id;
}

void GroupNode::rmcast(std::vector<GroupId> dests, net::MessagePtr payload) {
  rmcast_->rmcast(pid(), std::move(dests), std::move(payload));
}

void GroupNode::send_direct(ProcessId to, net::MessagePtr payload) {
  network_->send(pid(), to, std::move(payload));
}

void GroupNode::send_reply(ProcessId to, net::MessagePtr reply) {
  leader_action([this, to, reply = std::move(reply)] { send_direct(to, reply); });
}

void GroupNode::submit_local_or_remote(GroupId g, consensus::LogEntry entry) {
  // Our own group: the leader proposes, a follower holds its copy too.
  if (g == gid_ && paxos_->submit(entry)) return;
  if (batcher_ != nullptr) {
    // Server-tier batching: the entry rides the next BatchSubmitMsg to g's
    // members instead of fanning out immediately.
    batcher_->submit(g, std::move(entry));
    return;
  }
  auto wrapped = net::make_msg<SubmitToLog>(g, std::move(entry));
  for (ProcessId p : directory_->members(g)) {
    if (p == pid()) continue;
    network_->send(pid(), p, wrapped);
  }
}

}  // namespace dssmr::multicast
