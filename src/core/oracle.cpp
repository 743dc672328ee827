#include "core/oracle.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"

namespace dssmr::core {

using smr::Command;
using smr::CommandMsg;
using smr::CommandType;
using smr::ConsultMsg;
using smr::ProphecyMsg;
using smr::ReplyCode;
using smr::ReplyMsg;
using smr::ReplyTiming;
using smr::SignalMsg;

namespace {

/// Simulated CPU cost of answering one consult.
constexpr Duration kConsultService = usec(5);
/// Simulated CPU cost of applying one command.
constexpr Duration kCommandService = usec(3);
/// Variables per rebalance move command (one chunk = one kMove multicast).
constexpr std::size_t kRebalanceChunk = 16;

}  // namespace

void CoAccessTable::Ring::push(VarId v) {
  for (std::size_t i = 0; i < count; ++i) {
    if (recent[i] == v) return;  // already tracked; keep the ring stable
  }
  recent[next] = v;
  next = static_cast<std::uint8_t>((next + 1) % recent.size());
  count = static_cast<std::uint8_t>(std::min<std::size_t>(count + 1, recent.size()));
}

void CoAccessTable::note(const std::vector<VarId>& vars) {
  if (vars.size() < 2) return;
  const std::size_t n = std::min(vars.size(), kFeedCap);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) rings_[vars[i]].push(vars[j]);
    }
  }
}

void CoAccessTable::candidates(const std::vector<VarId>& vars, std::size_t k,
                               std::vector<VarId>& out) const {
  const std::size_t base = out.size();
  // Appends the members of `v`'s ring that are neither in `vars` nor already
  // in `out`, while budget remains.
  const auto expand = [&](VarId v) {
    auto it = rings_.find(v);
    if (it == rings_.end()) return;
    const Ring& ring = it->second;
    for (std::size_t s = 0; s < ring.count && out.size() - base < k; ++s) {
      const VarId c = ring.recent[s];
      if (std::find(vars.begin(), vars.end(), c) == vars.end() &&
          std::find(out.begin(), out.end(), c) == out.end()) {
        out.push_back(c);
      }
    }
  };
  const std::size_t n = std::min(vars.size(), kFeedCap);
  for (std::size_t i = 0; i < n && out.size() - base < k; ++i) expand(vars[i]);
  // Second hop: expand from the appended candidates themselves (out acts as
  // the BFS queue; entries appended here extend the frontier further, still
  // bounded by k).
  for (std::size_t f = base; f < out.size() && out.size() - base < k; ++f) expand(out[f]);
}

void OracleNode::init_oracle(net::Network& network, const multicast::Directory& directory,
                             GroupId gid, multicast::GroupNodeConfig node_config,
                             DssmrPolicy policy, std::vector<GroupId> partitions,
                             std::size_t prefetch_k, bool elastic, stats::Metrics& metrics,
                             std::uint64_t seed) {
  init_group_node(network, directory, gid, node_config, metrics, seed);
  mapping_ = std::make_unique<Mapping>(std::move(partitions));
  policy_ = std::move(policy);
  exec_ = std::make_unique<smr::ExecutionEngine>(network.engine());
  prefetch_k_ = prefetch_k;
  stats::Counter* const off = &stats::dummy_counter();
  auto handle = [&metrics](const char* name) { return &metrics.counter_handle(name); };
  ctr_ = {handle("oracle.consults"), handle("oracle.creates"), handle("oracle.deletes"),
          handle("oracle.moves_applied"),
          // Locality counters are interned only when their feature is on:
          // interning creates the counter, and off-mode run records must stay
          // byte-identical to the pre-locality output.
          prefetch_k > 0 ? handle("locality.prefetch_sent") : off,
          // Elastic counters follow the same rule: interned only when the plan
          // adds or retires a partition, so non-elastic run records keep their
          // exact bytes.
          elastic ? handle("elastic.partitions_added") : off,
          elastic ? handle("elastic.partitions_retired") : off,
          elastic ? handle("elastic.rebalance_moves") : off,
          elastic ? handle("elastic.rebalance_vars") : off};
  busy_series_ = &metrics.series("oracle.busy_us");
  moves_series_ = &metrics.series("moves_ts");
}

void OracleNode::preload(VarId v, GroupId p) { mapping_->place(v, p); }

void OracleNode::account(Duration service) {
  // One series per deployment: only the leader accounts, so the series
  // reflects one oracle replica's CPU, matching the paper's measurement.
  if (is_leader()) {
    busy_series_->add(engine().now(), static_cast<double>(service));
  }
}

void OracleNode::queue_reply_task(Duration service, sim::Callback run, MsgId id,
                                  common::SmallSet<GroupId> awaits) {
  account(service);
  exec_->enqueue({.id = id,
                  .awaits = std::move(awaits),
                  .touches = {},
                  .service = service,
                  .run = std::move(run)});
}

void OracleNode::on_amdeliver(const multicast::AmcastMessage& m) {
  if (const auto* consult = net::msg_cast<ConsultMsg>(m.payload)) {
    handle_consult(m.sender, *consult);
    return;
  }
  const auto* cm = net::msg_cast<CommandMsg>(m.payload);
  DSSMR_ASSERT_MSG(cm != nullptr, "oracle received an unknown payload");
  const Command& cmd = cm->cmd;
  switch (cmd.type) {
    case CommandType::kCreate:
    case CommandType::kDelete:
      handle_create_delete(m, cmd);
      break;
    case CommandType::kMove:
      handle_move(cmd);
      break;
    case CommandType::kReconfig:
      handle_reconfig(cmd);
      break;
    case CommandType::kAccess:
      // Only a fused move reaches the oracle (fall-back S-SMR executions do
      // not involve it): its mapping change applies like a bare move's.
      if (cmd.fused_move()) handle_move(cmd);
      break;
  }
}

void OracleNode::on_direct(ProcessId from, const net::MessagePtr& m) {
  // A first access consult, sent to every replica outside the log: only the
  // current leader answers, from its applied mapping; a follower holds it in
  // case the leader is gone.
  const auto* consult = net::msg_cast<ConsultMsg>(m);
  if (consult == nullptr) return;
  leader_action([this, from, m, consult] { handle_consult(from, *consult); });
}

void OracleNode::handle_consult(ProcessId client, const ConsultMsg& consult) {
  bump(ctr_.consults);
  const Command& cmd = consult.cmd;
  auto prophecy = std::make_shared<ProphecyMsg>(consult.consult_id, ReplyCode::kOk);

  if (cmd.type == CommandType::kCreate) {
    const VarId v = cmd.write_set.at(0);
    if (mapping_->contains(v)) {
      prophecy->code = ReplyCode::kNok;
    } else {
      prophecy->dest = policy_.place_new(*mapping_);
      prophecy->locations.emplace_back(v, prophecy->dest);
    }
  } else {
    // access or delete: every variable must exist.
    bool missing = false;
    std::vector<GroupId> dests;
    for (VarId v : cmd.vars()) {
      const GroupId p = mapping_->locate(v);
      if (p == kNoGroup) {
        missing = true;
        break;
      }
      prophecy->locations.emplace_back(v, p);
      if (std::find(dests.begin(), dests.end(), p) == dests.end()) dests.push_back(p);
    }
    if (missing) {
      prophecy->code = ReplyCode::kNok;
      prophecy->locations.clear();
    } else if (cmd.type == CommandType::kAccess && dests.size() > 1) {
      prophecy->dest = policy_.choose_destination(cmd.vars(), *mapping_);
      // A draining partition must stop accumulating state: collocation must
      // target a live partition even when the policy picks the (involved)
      // draining one. New variables need no such guard, since place_new
      // picks among live partitions only.
      if (!mapping_->is_live(prophecy->dest)) prophecy->dest = mapping_->least_loaded();
    } else if (cmd.type == CommandType::kAccess && dests.size() == 1) {
      prophecy->dest = dests[0];
    }
  }

  if (prefetch_k_ > 0 && cmd.type == CommandType::kAccess &&
      prophecy->code == ReplyCode::kOk && is_leader()) {
    // The co-access table is leader-local soft state: most access consults
    // reach only the leader, so only the replica that answers feeds and
    // probes it. A new leader starts from its own (partial) table, which
    // costs prefetch hits, never correctness — prefetched entries are
    // advisory like every cached location.
    co_access_.note(cmd.vars());
    std::vector<VarId> candidates;
    co_access_.candidates(cmd.vars(), prefetch_k_, candidates);
    for (VarId c : candidates) {
      const GroupId loc = mapping_->locate(c);
      if (loc == kNoGroup) continue;
      prophecy->prefetch.emplace_back(c, loc);
    }
    ctr_.prefetch_sent->inc(prophecy->prefetch.size());
  }

  const Time delivered = engine().now();
  queue_reply_task(kConsultService, [this, client, prophecy, tid = cmd.trace_id, delivered] {
    leader_action([this, client, prophecy, tid, delivered] {
      // Server-side view of consult handling (delivery -> prophecy sent); the
      // client's folded kConsult span covers this window end to end.
      record_span(stats::SpanPhase::kOracle, tid, delivered, engine().now());
      send_direct(client, prophecy);
    });
  });
}

void OracleNode::handle_create_delete(const multicast::AmcastMessage& m, const Command& cmd) {
  const VarId v = cmd.write_set.at(0);
  const ProcessId client = m.sender;

  if (const CachedReply* cached = completed_.find(cmd.id)) {
    send_reply(client, net::make_msg<ReplyMsg>(cmd.id, cached->code, group(), nullptr,
                                               cached->timing));
    return;
  }

  const Time delivered = engine().now();
  GroupId target = kNoGroup;
  for (GroupId g : m.dests) {
    if (g != group()) target = g;
  }
  ReplyCode outcome = ReplyCode::kOk;
  if (cmd.type == CommandType::kDelete) {
    mapping_->erase(v);
    bump(ctr_.deletes);
  } else if (mapping_->contains(v) || target == kNoGroup) {
    outcome = ReplyCode::kNok;
  } else {
    mapping_->place(v, target);
    bump(ctr_.creates);
  }

  // Reply only after the partition signalled that it applied the change.
  common::SmallSet<GroupId> awaits;
  if (outcome == ReplyCode::kOk && target != kNoGroup) awaits.insert(target);
  queue_reply_task(
      kCommandService,
      [this, id = cmd.id, client, outcome, delivered] {
        const Time exec_end = engine().now();
        const ReplyTiming timing{delivered, exec_end - kCommandService, exec_end};
        completed_.put(id, CachedReply{outcome, timing});
        send_reply(client, net::make_msg<ReplyMsg>(id, outcome, group(), nullptr, timing));
      },
      cmd.id, std::move(awaits));
}

void OracleNode::handle_move(const Command& cmd) {
  // Apply only moves whose recorded source matches — a stale move (the
  // variable moved elsewhere since the prophecy) must not corrupt the map.
  for (VarId v : cmd.vars()) {
    const GroupId cur = mapping_->locate(v);
    if (cur == kNoGroup) continue;
    if (std::find(cmd.move_sources.begin(), cmd.move_sources.end(), cur) !=
        cmd.move_sources.end()) {
      mapping_->place(v, cmd.move_dest);
    }
  }
  bump(ctr_.moves_applied);
  queue_reply_task(kCommandService, [] {});
}

void OracleNode::submit_reconfig(GroupId partition, std::uint32_t op) {
  Command cmd;
  cmd.type = CommandType::kReconfig;
  cmd.id = next_msg_id();
  cmd.op = op;
  cmd.move_dest = partition;
  amcast({group()}, net::make_msg<CommandMsg>(std::move(cmd)));
}

void OracleNode::handle_reconfig(const Command& cmd) {
  const GroupId target = cmd.move_dest;
  if (cmd.op == kReconfigAdd) {
    if (!mapping_->is_member(target)) {
      mapping_->add_partition(target);
      bump(ctr_.partitions_added);
      record_instant(stats::InstantKind::kPartitionAdded, cmd.id.value,
                     static_cast<std::int64_t>(target.value));
    }
    // Rebalance toward the newcomer. Leader-only: the moves go through the
    // regular amcast machinery and every replica's mapping updates when they
    // deliver.
    if (is_leader()) plan_rebalance_in(target);
  } else {
    DSSMR_ASSERT_MSG(cmd.op == kReconfigRetire, "unknown reconfig op");
    DSSMR_ASSERT_MSG(mapping_->is_member(target), "retiring an unknown partition");
    if (mapping_->is_live(target)) {
      mapping_->set_draining(target);
      bump(ctr_.partitions_retired);
      record_instant(stats::InstantKind::kPartitionDraining, cmd.id.value,
                     static_cast<std::int64_t>(target.value));
    }
    // Sweep whatever is currently mapped there. The Nemesis re-submits the
    // retire record if stragglers (moves in flight at planning time) land
    // variables on the draining partition afterwards — handle_reconfig is
    // idempotent, so each sweep only moves the leftovers.
    if (is_leader()) plan_drain(target);
  }
  queue_reply_task(kCommandService, [] {});
}

void OracleNode::plan_rebalance_in(GroupId target) {
  const std::size_t live = mapping_->live_count();
  if (live == 0) return;
  const std::uint64_t quota = mapping_->var_count() / live;
  const std::uint64_t held = mapping_->load(target);
  std::uint64_t deficit = quota > held ? quota - held : 0;
  // Donors above quota, most loaded first (stable sort over the membership
  // order keeps ties canonical — every replica would plan identically).
  std::vector<GroupId> donors;
  for (GroupId p : mapping_->partitions()) {
    if (p == target || !mapping_->is_live(p)) continue;
    if (mapping_->load(p) > quota) donors.push_back(p);
  }
  std::stable_sort(donors.begin(), donors.end(),
                   [&](GroupId a, GroupId b) { return mapping_->load(a) > mapping_->load(b); });
  std::vector<VarId> vars;
  for (GroupId donor : donors) {
    if (deficit == 0) break;
    const std::uint64_t take = std::min<std::uint64_t>(mapping_->load(donor) - quota, deficit);
    if (take == 0) continue;
    vars.clear();
    mapping_->vars_on(donor, vars);
    vars.resize(static_cast<std::size_t>(take));
    deficit -= take;
    for (std::size_t i = 0; i < vars.size(); i += kRebalanceChunk) {
      const std::size_t n = std::min(kRebalanceChunk, vars.size() - i);
      issue_rebalance_move(
          donor, target,
          std::vector<VarId>(vars.begin() + static_cast<std::ptrdiff_t>(i),
                             vars.begin() + static_cast<std::ptrdiff_t>(i + n)));
    }
  }
}

void OracleNode::plan_drain(GroupId retiring) {
  std::vector<VarId> vars;
  mapping_->vars_on(retiring, vars);
  if (vars.empty()) return;
  // Chunk destinations spread by a local copy of the live loads, so one
  // planning pass balances the whole drain deterministically.
  std::vector<GroupId> live;
  std::vector<std::uint64_t> loads;
  for (GroupId p : mapping_->partitions()) {
    if (!mapping_->is_live(p)) continue;
    live.push_back(p);
    loads.push_back(mapping_->load(p));
  }
  DSSMR_ASSERT_MSG(!live.empty(), "draining the last live partition");
  for (std::size_t i = 0; i < vars.size(); i += kRebalanceChunk) {
    const std::size_t n = std::min(kRebalanceChunk, vars.size() - i);
    std::size_t best = 0;
    for (std::size_t j = 1; j < live.size(); ++j) {
      if (loads[j] < loads[best]) best = j;
    }
    loads[best] += n;
    issue_rebalance_move(
        retiring, live[best],
        std::vector<VarId>(vars.begin() + static_cast<std::ptrdiff_t>(i),
                           vars.begin() + static_cast<std::ptrdiff_t>(i + n)));
  }
}

void OracleNode::issue_rebalance_move(GroupId from, GroupId to, std::vector<VarId> chunk) {
  // Only the leader plans rebalance moves, so nothing here needs a leader
  // gate. No client awaits a rebalance move's reply. vars_on() order ==
  // vars() order (sorted).
  ctr_.rebalance_vars->inc(chunk.size());
  metrics().histogram("elastic.rebalance_entries").record(static_cast<std::int64_t>(chunk.size()));
  Command move = smr::make_move(next_msg_id(), /*trace_id=*/0, std::move(chunk), {from}, to);
  const MsgId id = move.id;
  // The group list is built first: amcast's arguments are evaluated in an
  // unspecified order, and one of them moves the command into its message.
  std::vector<GroupId> groups = smr::move_groups(move, group());
  amcast(std::move(groups), net::make_msg<CommandMsg>(std::move(move)));
  ctr_.rebalance_moves->inc();
  record_instant(stats::InstantKind::kRebalanceMove, id.value, static_cast<std::int64_t>(to.value));
  moves_series_->add(engine().now());
}

void OracleNode::on_rmdeliver(ProcessId origin, const net::MessagePtr& payload) {
  (void)origin;
  const auto* sig = net::msg_cast<SignalMsg>(payload);
  // A signal for a command already answered has nothing left to release.
  if (sig != nullptr && !completed_.contains(sig->cmd_id)) {
    exec_->arrive(sig->cmd_id, sig->from_group);
  }
}

}  // namespace dssmr::core
