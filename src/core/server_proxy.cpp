#include "core/server_proxy.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"

namespace dssmr::core {

using smr::Command;
using smr::CommandMsg;
using smr::CommandType;
using smr::ReplyCode;
using smr::ReplyMsg;
using smr::ReplyTiming;
using smr::SignalMsg;
using smr::VarShipMsg;
using stats::SpanPhase;

namespace {

/// thread_local: simulations on different sweep threads may share it.
stats::Counter& dummy_counter() {
  thread_local stats::Counter c;
  return c;
}

}  // namespace

void PartitionServer::init_partition(net::Network& network,
                                     const multicast::Directory& directory, GroupId gid,
                                     multicast::GroupNodeConfig node_config,
                                     const smr::AppFactory& app_factory,
                                     PartitionServerConfig config, stats::Metrics* metrics,
                                     std::uint64_t seed) {
  init_group_node(network, directory, gid, node_config, seed);
  app_ = app_factory();
  DSSMR_ASSERT(app_ != nullptr);
  exec_ = std::make_unique<smr::ExecutionEngine>(network.engine());
  config_ = config;
  completed_ = BoundedMap<MsgId, CachedReply>{config_.reply_cache_capacity};
  metrics_ = metrics;
  auto handle = [this](const char* name) {
    return metrics_ != nullptr ? &metrics_->counter_handle(name) : &dummy_counter();
  };
  ctr_ = {handle("server.retries_issued"),
          handle("server.single_partition_commands"),
          handle("server.multi_partition_commands"),
          handle("server.moves_source"),
          handle("server.moves_dest"),
          handle("server.moves_failed"),
          handle("server.creates"),
          handle("server.deletes")};
}

void PartitionServer::preload(VarId v, std::unique_ptr<smr::VarValue> value) {
  owned_.insert(v);
  store_.put(v, std::move(value));
}

void PartitionServer::bump(stats::Counter* c) {
  // Leader-gated so deployment-wide counters are per-event, not per-replica.
  if (is_leader()) c->inc();
}

void PartitionServer::heat_command(bool multi) {
  if (metrics_ == nullptr || !is_leader()) return;
  metrics_->recorder().record_command(engine().now(), heat_index(), multi);
}

void PartitionServer::heat_move() {
  if (metrics_ == nullptr || !is_leader()) return;
  metrics_->recorder().record_move(engine().now(), heat_index());
}

std::size_t PartitionServer::heat_index() const {
  // Dense partition index: the oracle group sits at gid == partition count,
  // so elastically added partitions (gid > oracle) shift down by one. Initial
  // partitions (gid < oracle) keep their gid as index, unchanged from the
  // pre-elasticity layout.
  return group().value < config_.oracle_group.value ? group().value : group().value - 1;
}

void PartitionServer::span(SpanPhase p, std::uint64_t trace_id, Time start, Time end,
                           std::int64_t arg) {
  if (metrics_ == nullptr || trace_id == 0 || !is_leader()) return;
  stats::SpanStore& sp = metrics_->spans();
  if (!sp.enabled()) return;
  sp.record({.trace_id = trace_id,
             .phase = p,
             .start = start,
             .end = end,
             .node = pid().value,
             .group = group(),
             .arg = arg},
            /*fold=*/false);
}

template <class Body>
void PartitionServer::execute(MsgId id, std::uint64_t trace_id, Time delivered, Duration service,
                              common::SmallSet<GroupId> awaits, Body body, sim::Callback on_head,
                              std::int64_t span_arg) {
  inflight_.insert(id);
  exec_->enqueue({.id = id,
                  .awaits = std::move(awaits),
                  .service = service,
                  .on_head = std::move(on_head),
                  .run = [this, id, trace_id, delivered, service, span_arg,
                          body = std::move(body)]() mutable {
                    inflight_.erase(id);
                    // run fires when the service time elapses, i.e. at exec end.
                    const Time exec_end = engine().now();
                    const Time exec_start = exec_end - service;
                    span(SpanPhase::kQueue, trace_id, delivered, exec_start);
                    span(SpanPhase::kExecute, trace_id, exec_start, exec_end, span_arg);
                    body(ReplyTiming{delivered, exec_start, exec_end});
                  }});
}

void PartitionServer::reply_to(ProcessId client, MsgId cmd_id, ReplyCode code,
                               net::MessagePtr app_reply, bool cache, ReplyTiming timing,
                               bool access_final) {
  if (cache) completed_.put(cmd_id, CachedReply{code, app_reply, timing});
  if (access_final) {
    // Watermark update runs on every replica (deliveries are identical across
    // replicas, so the dedup state stays deterministic and survives leader
    // changes). ids are (client pid << 32) | seq.
    AccessFinal& f = access_final_[static_cast<std::uint32_t>(cmd_id.value >> 32)];
    if (cmd_id.value >= f.cmd_id) f = AccessFinal{cmd_id.value, {code, app_reply, timing}};
  }
  if (client == kNoProcess) return;
  if (!is_leader()) return;  // a peer replica's leader sends it
  send_direct(client, net::make_msg<ReplyMsg>(cmd_id, code, group(), std::move(app_reply), timing));
}

void PartitionServer::on_amdeliver(const multicast::AmcastMessage& m) {
  const auto* cm = net::msg_cast<CommandMsg>(m.payload);
  DSSMR_ASSERT_MSG(cm != nullptr, "partition received a non-command payload");
  const Command& cmd = cm->cmd;
  const ProcessId client = cmd.requester != kNoProcess ? cmd.requester : m.sender;

  // Retried command that already completed here: re-send the cached outcome.
  if (const CachedReply* cached = completed_.find(cmd.id)) {
    if (is_leader() && client != kNoProcess) {
      send_direct(client, net::make_msg<ReplyMsg>(cmd.id, cached->code, group(), cached->app_reply,
                                                  cached->timing));
    }
    return;
  }
  // Retransmission delivered while the original is still queued: ignore it
  // (the queued task will answer). Processing it would enqueue a duplicate.
  if (inflight_.contains(cmd.id)) return;

  // Reply-cache miss is not proof the command is new: the cache is bounded,
  // and a slow retransmission can outlive its entry. The per-client access
  // watermark catches that — at-most-once even after eviction.
  if (cmd.type == CommandType::kAccess) {
    auto it = access_final_.find(static_cast<std::uint32_t>(cmd.id.value >> 32));
    if (it != access_final_.end() && cmd.id.value <= it->second.cmd_id) {
      if (cmd.id.value == it->second.cmd_id && is_leader() && client != kNoProcess) {
        const CachedReply& r = it->second.reply;
        send_direct(client, net::make_msg<ReplyMsg>(cmd.id, r.code, group(), r.app_reply,
                                                    r.timing));
      }
      return;
    }
  }

  switch (cmd.type) {
    case CommandType::kAccess:
      if (m.dests.size() == 1) {
        deliver_access_single(m, cmd);
      } else {
        deliver_access_multi(m, cmd);
      }
      break;
    case CommandType::kMove:
      deliver_move(m, cmd);
      break;
    case CommandType::kCreate:
      deliver_create(m, cmd);
      break;
    case CommandType::kDelete:
      deliver_delete(m, cmd);
      break;
    case CommandType::kReconfig:
      DSSMR_ASSERT_MSG(false, "kReconfig is an oracle-only record; partitions never deliver it");
      break;
  }
}

// ---- access: single partition (fast path) -----------------------------------

void PartitionServer::deliver_access_single(const multicast::AmcastMessage& m,
                                            const Command& cmd) {
  const ProcessId client = cmd.requester != kNoProcess ? cmd.requester : m.sender;
  const Time delivered = engine().now();
  // A retired partition's "your information is stale" answer upgrades to
  // kRetired: the client must also drop the partition from its cache and
  // go back to the oracle rather than re-route here.
  const ReplyCode stale = retired_ ? ReplyCode::kRetired : ReplyCode::kRetry;

  // Ownership check at delivery time (the paper's "all variables stored
  // locally?"). Ownership is updated synchronously on delivery of moves, so
  // a command ordered after a move that brings its variables here passes
  // even though the values are still in flight.
  for (VarId v : cmd.read_set) {
    if (!owned_.contains(v)) {
      bump(ctr_.retries_issued);
      reply_to(client, cmd.id, stale, nullptr, /*cache=*/false,
               ReplyTiming{delivered, delivered, delivered});
      return;
    }
  }
  for (VarId v : cmd.write_set) {
    if (!owned_.contains(v)) {
      bump(ctr_.retries_issued);
      reply_to(client, cmd.id, stale, nullptr, /*cache=*/false,
               ReplyTiming{delivered, delivered, delivered});
      return;
    }
  }

  bump(ctr_.single_partition);
  heat_command(/*multi=*/false);
  execute(cmd.id, cmd.trace_id, delivered, app_->service_time(cmd), {},
          [this, cmd, client](const ReplyTiming& timing) {
            // A move ordered between delivery and execution cannot have taken
            // our variables (it would have been ordered before us and already
            // executed), but a *failed* inbound move can leave an owned
            // variable with no value; treat as stale information.
            for (VarId v : cmd.vars()) {
              if (!store_.contains(v)) {
                bump(ctr_.retries_issued);
                reply_to(client, cmd.id, retired_ ? ReplyCode::kRetired : ReplyCode::kRetry,
                         nullptr, /*cache=*/false, timing);
                return;
              }
            }
            smr::ExecutionView view{store_};
            net::MessagePtr app_reply = app_->execute(cmd, view);
            reply_to(client, cmd.id, ReplyCode::kOk, std::move(app_reply), /*cache=*/true,
                     timing, /*access_final=*/true);
          });
}

// ---- access: multi partition (S-SMR execution) -------------------------------

void PartitionServer::deliver_access_multi(const multicast::AmcastMessage& m,
                                           const Command& cmd) {
  const ProcessId client = cmd.requester != kNoProcess ? cmd.requester : m.sender;
  const Time delivered = engine().now();
  common::SmallSet<GroupId> others;  // sorted, like m.dests
  for (GroupId g : m.dests) {
    if (g != group() && g != config_.oracle_group) others.insert(g);
  }

  // Uninvolved: we neither own nor store any of the command's variables (the
  // common case for an all-partition fallback). Our at-head snapshot would
  // then be empty: a value enters store_ only through a task queued ahead of
  // this one (a move install or a create), each of those claimed ownership at
  // its own, earlier delivery, and a claim that is gone by now was dropped by
  // a failed install (no value) or by a move-out or delete whose task, also
  // ahead of ours, removes the value again. So we ship the same empty set now
  // instead of at head, the involved peers compute exactly what they would
  // have, and our queue never blocks on this command. The reply is cached and
  // recorded as final so a retransmission is never executed here later, even
  // after a move has brought one of the variables in.
  const std::vector<VarId> vars = cmd.vars();
  const bool involved = std::any_of(vars.begin(), vars.end(), [this](VarId v) {
    return owned_.contains(v) || store_.contains(v);
  });
  if (!involved) {
    // By name, not interned at init: runs without fallbacks keep their counters.
    if (is_leader() && metrics_ != nullptr) metrics_->inc("server.fallback_uninvolved");
    if (!others.empty()) {
      rmcast({others.begin(), others.end()},
             net::make_msg<VarShipMsg>(cmd.id, group(), /*is_move=*/false,
                                       decltype(VarShipMsg::vars){}));
    }
    // Peer shipments that arrived before our delivery.
    exec_->forget(cmd.id);
    shipped_.erase(cmd.id);
    reply_to(client, cmd.id, ReplyCode::kNotInvolved, nullptr, /*cache=*/true,
             ReplyTiming{delivered, delivered, delivered}, /*access_final=*/true);
    return;
  }

  bump(ctr_.multi_partition);
  heat_command(/*multi=*/true);
  // Ships every variable of the command we own (a snapshot), plus an
  // implicit signal, to the other involved partitions.
  auto ship_mine = [this, cmd, others] {
    std::vector<std::pair<VarId, std::shared_ptr<const smr::VarValue>>> ship;
    for (VarId v : cmd.vars()) {
      if (const smr::VarValue* val = store_.get(v); val != nullptr) {
        ship.emplace_back(v, std::shared_ptr<const smr::VarValue>(val->clone()));
      }
    }
    if (!others.empty()) {
      rmcast({others.begin(), others.end()},
             net::make_msg<VarShipMsg>(cmd.id, group(), /*is_move=*/false, std::move(ship)));
    }
  };
  // The queue span includes the wait for peer shipments — the serialization
  // S-SMR pays for multi-partition commands.
  execute(
      cmd.id, cmd.trace_id, delivered, app_->service_time(cmd), std::move(others),
      [this, cmd, client](const ReplyTiming& timing) {
        smr::ExecutionView view{store_};
        auto it = shipped_.find(cmd.id);
        if (it != shipped_.end()) {
          for (auto& [v, val] : it->second) {
            if (!store_.contains(v) && val != nullptr) view.lend(v, val->clone());
          }
        }
        net::MessagePtr app_reply = app_->execute(cmd, view);
        if (it != shipped_.end()) shipped_.erase(it);
        reply_to(client, cmd.id, ReplyCode::kOk, std::move(app_reply), /*cache=*/true, timing,
                 /*access_final=*/true);
      },
      std::move(ship_mine));
}

// ---- move --------------------------------------------------------------------

void PartitionServer::deliver_move(const multicast::AmcastMessage& m, const Command& cmd) {
  const ProcessId client = cmd.requester != kNoProcess ? cmd.requester : m.sender;
  const bool is_dest = cmd.move_dest == group();
  const std::vector<VarId> vars = cmd.vars();
  const Time delivered = engine().now();

  if (!is_dest) {
    // Source: give up ownership immediately (delivery order defines who owns
    // what); ship the values once predecessors finish executing.
    std::vector<VarId> mine;
    for (VarId v : vars) {
      if (owned_.erase(v) != 0) mine.push_back(v);
    }
    bump(ctr_.moves_source);
    heat_move();
    execute(
        cmd.id, cmd.trace_id, delivered,
        config_.move_service_per_var * static_cast<Duration>(mine.size() + 1), {},
        [this, mine, dest = cmd.move_dest, id = cmd.id](const ReplyTiming&) {
          std::vector<std::pair<VarId, std::shared_ptr<const smr::VarValue>>> ship;
          for (VarId v : mine) {
            if (auto val = store_.take(v); val != nullptr) {
              ship.emplace_back(v, std::shared_ptr<const smr::VarValue>(std::move(val)));
            }
          }
          rmcast({dest}, net::make_msg<VarShipMsg>(id, group(), /*is_move=*/true, std::move(ship)));
        },
        {}, static_cast<std::int64_t>(mine.size()));
    return;
  }

  // Destination: claim ownership now; wait for one shipment per source, then
  // install the values and answer the requester.
  for (VarId v : vars) owned_.insert(v);
  common::SmallSet<GroupId> sources;
  for (GroupId g : cmd.move_sources) {
    if (g != group()) sources.insert(g);
  }
  bump(ctr_.moves_dest);
  heat_move();
  execute(
      cmd.id, cmd.trace_id, delivered,
      config_.move_service_per_var * static_cast<Duration>(vars.size() + 1), std::move(sources),
      [this, vars, client, id = cmd.id](const ReplyTiming& timing) {
        auto it = shipped_.find(id);
        std::vector<VarId> installed;
        std::size_t failed = 0;
        for (VarId v : vars) {
          if (store_.contains(v)) {  // we already held it
            installed.push_back(v);
            continue;
          }
          std::shared_ptr<const smr::VarValue> val;
          if (it != shipped_.end()) {
            if (auto f = it->second.find(v); f != it->second.end()) val = f->second;
          }
          if (val != nullptr) {
            store_.put(v, val->clone());
            installed.push_back(v);
          } else {
            // No source shipped it: the mapping was stale; give the claim up.
            owned_.erase(v);
            ++failed;
          }
        }
        if (it != shipped_.end()) shipped_.erase(it);
        // The reply tells the client which variables really landed here so
        // it caches only those; a partial install is a failed move and must
        // go through the client's retry/fallback path, not pretend success.
        const ReplyCode code = failed == 0 ? ReplyCode::kOk : ReplyCode::kRetry;
        if (failed == 0) {
          record_instant(stats::InstantKind::kMoveApplied, id.value,
                         static_cast<std::int64_t>(installed.size()));
        } else {
          bump(ctr_.moves_failed);
          record_instant(stats::InstantKind::kMoveFailed, id.value,
                         static_cast<std::int64_t>(failed));
        }
        reply_to(client, id, code, net::make_msg<smr::MoveResultMsg>(std::move(installed)),
                 /*cache=*/true, timing);
      },
      {}, static_cast<std::int64_t>(vars.size()));
}

// ---- create / delete ---------------------------------------------------------

void PartitionServer::deliver_create(const multicast::AmcastMessage& m, const Command& cmd) {
  (void)m;
  DSSMR_ASSERT(cmd.write_set.size() == 1);
  const VarId v = cmd.write_set[0];
  if (owned_.contains(v)) {
    // Duplicate create (raced consults); the oracle answers nok. Still signal
    // so the oracle's wait terminates.
    rmcast({config_.oracle_group}, net::make_msg<SignalMsg>(cmd.id, group()));
    return;
  }
  owned_.insert(v);
  bump(ctr_.creates);
  execute(cmd.id, cmd.trace_id, engine().now(), config_.create_delete_service, {},
          [this, v, id = cmd.id](const ReplyTiming&) {
            if (owned_.contains(v) && !store_.contains(v)) {
              store_.put(v, app_->make_default(v));
            }
            // Execution-atomicity signal: the oracle replies to the client
            // only after the partition has applied the create.
            rmcast({config_.oracle_group}, net::make_msg<SignalMsg>(id, group()));
          });
}

void PartitionServer::deliver_delete(const multicast::AmcastMessage& m, const Command& cmd) {
  (void)m;
  DSSMR_ASSERT(cmd.write_set.size() == 1);
  const VarId v = cmd.write_set[0];
  owned_.erase(v);
  bump(ctr_.deletes);
  execute(cmd.id, cmd.trace_id, engine().now(), config_.create_delete_service, {},
          [this, v, id = cmd.id](const ReplyTiming&) {
            store_.erase(v);
            rmcast({config_.oracle_group}, net::make_msg<SignalMsg>(id, group()));
          });
}

// ---- reliable-multicast inputs ------------------------------------------------

void PartitionServer::on_rmdeliver(ProcessId origin, const net::MessagePtr& payload) {
  (void)origin;
  if (const auto* ship = net::msg_cast<VarShipMsg>(payload)) {
    if (completed_.contains(ship->cmd_id)) return;  // late duplicate
    // Another replica of the same group: drop it before storing anything, as
    // replicas of one partition may ship different variable sets.
    if (!exec_->arrive(ship->cmd_id, ship->from_group)) return;
    // Storing after arrive() is safe: a task it readies runs in a later event.
    auto& vals = shipped_[ship->cmd_id];
    for (const auto& [v, val] : ship->vars) vals.try_emplace(v, val);
    return;
  }
  if (net::msg_cast<SignalMsg>(payload) != nullptr) {
    // Partitions do not wait on signals in this implementation (only the
    // oracle does, before answering create/delete); ignore.
    return;
  }
}

}  // namespace dssmr::core
