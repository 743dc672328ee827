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

/// CPU cost of shipping one variable during a move (plus one for the move).
constexpr Duration kMoveServicePerVar = usec(2);
/// CPU cost of installing a created or deleted variable.
constexpr Duration kCreateDeleteService = usec(5);

}  // namespace

void PartitionServer::init_partition(net::Network& network,
                                     const multicast::Directory& directory, GroupId gid,
                                     std::size_t index, GroupId oracle_group,
                                     multicast::GroupNodeConfig node_config,
                                     const smr::AppFactory& app_factory,
                                     PartitionServerConfig config, stats::Metrics& metrics,
                                     std::uint64_t seed) {
  init_group_node(network, directory, gid, node_config, metrics, seed);
  app_ = app_factory();
  DSSMR_ASSERT(app_ != nullptr);
  exec_ = std::make_unique<smr::ExecutionEngine>(network.engine());
  oracle_group_ = oracle_group;
  index_ = index;
  completed_ = BoundedSet<MsgId>{config.reply_cache_capacity};
  auto handle = [&metrics](const char* name) { return &metrics.counter_handle(name); };
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
  store_.claim(v, smr::VariableStore::kPreloaded);
  store_.put(v, std::move(value));
}

void PartitionServer::count_command(bool multi) {
  if (!is_leader()) return;
  (multi ? ctr_.multi_partition : ctr_.single_partition)->inc();
  metrics().recorder().record_command(engine().now(), index_, multi);
}

void PartitionServer::count_move(bool dest) {
  if (!is_leader()) return;
  (dest ? ctr_.moves_dest : ctr_.moves_source)->inc();
  metrics().recorder().record_move(engine().now(), index_);
}

template <class Body>
void PartitionServer::execute(MsgId id, std::uint64_t trace_id, Time delivered, Duration service,
                              common::SmallSet<GroupId> awaits, std::vector<VarId> touches,
                              Body body, std::int64_t span_arg) {
  exec_->enqueue({.id = id,
                  .awaits = std::move(awaits),
                  .touches = std::move(touches),
                  .service = service,
                  .run = [this, id, trace_id, delivered, service, span_arg,
                          body = std::move(body)]() mutable {
                    // run fires when the service time elapses, i.e. at exec end.
                    const Time exec_end = engine().now();
                    const Time exec_start = exec_end - service;
                    record_span(SpanPhase::kQueue, trace_id, delivered, exec_start);
                    record_span(SpanPhase::kExecute, trace_id, exec_start, exec_end, span_arg);
                    body(ReplyTiming{delivered, exec_start, exec_end});
                  }});
}

void PartitionServer::reply_to(ProcessId client, const Command& cmd, ReplyCode code,
                               net::MessagePtr app_reply, ReplyTiming timing, Settles settles) {
  // Runs on every replica (deliveries are identical across replicas, so the
  // dedup state stays deterministic and survives leader changes).
  if (settles != Settles::kNothing) completed_.insert(cmd.id);
  if (client == kNoProcess) return;  // a rebalance move: nobody awaits it
  auto reply = net::make_msg<ReplyMsg>(cmd.id, code, group(), std::move(app_reply), timing);
  if (settles != Settles::kNothing) {
    Session& session = sessions_[client];
    if (settles == Settles::kMove) {
      session.move = Settled{cmd.id, reply};
      // A fused move that executed settles its command too, under the
      // command's own id: a late copy of an earlier send of the command must
      // not run it here again.
      const MsgId own{cmd.trace_id};
      if (code == ReplyCode::kOk && cmd.fused_move() && own >= session.access.id) {
        session.access = Settled{own, reply};
      }
    } else if (cmd.id >= session.access.id) {
      session.access = Settled{cmd.id, reply};
    }
  }
  send_reply(client, std::move(reply));
}

void PartitionServer::on_amdeliver(const multicast::AmcastMessage& m) {
  const auto* cm = net::msg_cast<CommandMsg>(m.payload);
  DSSMR_ASSERT_MSG(cm != nullptr, "partition received a non-command payload");
  const Command& cmd = cm->cmd;
  const ProcessId client = m.sender;

  // A fused move settles as a move: it carries a fresh id per attempt, so
  // it must not raise the access watermark past the command's own id.
  const bool moves = cmd.type == CommandType::kMove || cmd.fused_move();
  // Re-sends the reply of a retried command that settled here, if it is the
  // requester's latest of its kind; the requester ignores any other reply.
  auto answer_retry = [&] {
    const auto session = sessions_.find(client);
    if (session == sessions_.end()) return;
    const Settled& latest = moves ? session->second.move : session->second.access;
    if (latest.id == cmd.id) send_reply(client, latest.reply);
  };

  // Each attempt of a fused move is delivered once at every partition it
  // involves, whatever the windows below still hold (see Session::fused).
  if (cmd.fused_move() && client != kNoProcess) {
    MsgId& fused = sessions_[client].fused;
    if (cmd.id <= fused) {
      answer_retry();
      return;
    }
    fused = cmd.id;
  }
  if (completed_.contains(cmd.id)) {
    answer_retry();
    return;
  }
  // Retransmission delivered while the original is still queued: ignore it
  // (the queued task will answer). Processing it would enqueue a duplicate.
  if (exec_->pending(cmd.id)) return;

  // A window miss is not proof the command is new: the window is bounded,
  // and a slow retransmission can outlive its entry. The requester's latest
  // settled access catches that — at-most-once even after eviction.
  if (cmd.type == CommandType::kAccess && !moves) {
    const auto session = sessions_.find(client);
    if (session != sessions_.end() && cmd.id <= session->second.access.id) {
      answer_retry();
      return;
    }
  }

  switch (cmd.type) {
    case CommandType::kAccess:
      if (moves) {
        deliver_move(cmd, client);
      } else if (m.dests.size() == 1) {
        deliver_access_single(cmd, client);
      } else {
        deliver_access_multi(m, cmd, client);
      }
      break;
    case CommandType::kMove:
      deliver_move(cmd, client);
      break;
    case CommandType::kCreate:
      deliver_create(cmd);
      break;
    case CommandType::kDelete:
      deliver_delete(cmd);
      break;
    case CommandType::kReconfig:
      DSSMR_ASSERT_MSG(false, "kReconfig is an oracle-only record; partitions never deliver it");
      break;
  }
}

// ---- access: single partition (fast path) -----------------------------------

void PartitionServer::deliver_access_single(const Command& cmd, ProcessId client) {
  const Time delivered = engine().now();
  // A retired partition's "your information is stale" answer upgrades to
  // kRetired: the client must also drop the partition from its cache and
  // go back to the oracle rather than re-route here.
  const ReplyCode stale = retired_ ? ReplyCode::kRetired : ReplyCode::kRetry;

  // Ownership check at delivery time (the paper's "all variables stored
  // locally?"). Ownership is updated synchronously on delivery of moves, so
  // a command ordered after a move that brings its variables here passes
  // even though the values are still in flight.
  const auto owned = [this](VarId v) { return store_.owns(v); };
  if (!std::all_of(cmd.read_set.begin(), cmd.read_set.end(), owned) ||
      !std::all_of(cmd.write_set.begin(), cmd.write_set.end(), owned)) {
    bump(ctr_.retries_issued);
    reply_to(client, cmd, stale, nullptr, ReplyTiming{delivered, delivered, delivered},
             Settles::kNothing);
    return;
  }

  count_command(/*multi=*/false);
  execute(cmd.id, cmd.trace_id, delivered, app_->service_time(cmd), {}, cmd.vars(),
          [this, cmd, client](const ReplyTiming& timing) {
            // A move ordered between delivery and execution cannot have taken
            // our variables (it would have been ordered before us and already
            // executed), but a *failed* inbound move can leave an owned
            // variable with no value; treat as stale information.
            const auto held = [this](VarId v) { return store_.contains(v); };
            if (!std::all_of(cmd.read_set.begin(), cmd.read_set.end(), held) ||
                !std::all_of(cmd.write_set.begin(), cmd.write_set.end(), held)) {
              bump(ctr_.retries_issued);
              reply_to(client, cmd, retired_ ? ReplyCode::kRetired : ReplyCode::kRetry,
                       nullptr, timing, Settles::kNothing);
              return;
            }
            smr::ExecutionView view{store_};
            net::MessagePtr app_reply = app_->execute(cmd, view);
            reply_to(client, cmd, ReplyCode::kOk, std::move(app_reply), timing,
                     Settles::kAccess);
          });
}

// ---- access: multi partition (S-SMR execution) -------------------------------

void PartitionServer::deliver_access_multi(const multicast::AmcastMessage& m, const Command& cmd,
                                           ProcessId client) {
  const Time delivered = engine().now();
  common::SmallSet<GroupId> others;  // sorted, like m.dests
  for (GroupId g : m.dests) {
    if (g != group() && g != oracle_group_) others.insert(g);
  }

  // Uninvolved: no slot of our store holds any of the command's variables
  // (the common case for an all-partition fallback). Our settled snapshot
  // would then be empty: a value enters store_ only through a task queued
  // ahead of this one (a move install or a create), each of those claimed the
  // slot at its own, earlier delivery, and a slot that is gone by now was
  // given up by a failed install (no value) or by a move-out or delete whose
  // task, also ahead of ours, removes the value again. So we ship the same
  // empty set now, the involved peers compute exactly what they would have,
  // and our queue never holds this command. The reply is cached and recorded
  // as final so a retransmission is never executed here later, even after a
  // move has brought one of the variables in.
  const std::vector<VarId> vars = cmd.vars();
  const bool involved =
      std::any_of(vars.begin(), vars.end(), [this](VarId v) { return store_.holds(v); });
  if (!involved) {
    // By name, not interned at init: runs without fallbacks keep their counters.
    if (is_leader()) metrics().inc("server.fallback_uninvolved");
    if (!others.empty()) {
      rmcast({others.begin(), others.end()},
             net::make_msg<VarShipMsg>(cmd.id, group(), decltype(VarShipMsg::vars){}));
    }
    // Peer shipments that arrived before our delivery.
    exec_->forget(cmd.id);
    reply_to(client, cmd, ReplyCode::kNotInvolved, nullptr,
             ReplyTiming{delivered, delivered, delivered}, Settles::kAccess);
    return;
  }

  count_command(/*multi=*/true);
  // Ships every variable of the command we hold (a snapshot), plus an
  // implicit signal, to the other involved partitions, as soon as the values
  // are final: no task queued before this command touches them any more.
  if (!others.empty()) {
    exec_->when_settled(vars, [this, vars, id = cmd.id, others] {
      rmcast({others.begin(), others.end()},
             net::make_msg<VarShipMsg>(id, group(), snapshot(vars)));
    });
  }
  // The queue span includes the wait for peer shipments — the serialization
  // S-SMR pays for multi-partition commands.
  execute(
      cmd.id, cmd.trace_id, delivered, app_->service_time(cmd), std::move(others), vars,
      [this, cmd, client](const ReplyTiming& timing) {
        smr::ExecutionView view{store_};
        for (const auto& [v, val] : exec_->shipped(cmd.id)) {
          if (!store_.contains(v)) view.lend(v, val->clone());
        }
        net::MessagePtr app_reply = app_->execute(cmd, view);
        reply_to(client, cmd, ReplyCode::kOk, std::move(app_reply), timing, Settles::kAccess);
      });
}

// ---- move (bare or fused) ---------------------------------------------------

std::vector<std::pair<VarId, std::shared_ptr<const smr::VarValue>>> PartitionServer::snapshot(
    const std::vector<VarId>& vars) const {
  std::vector<std::pair<VarId, std::shared_ptr<const smr::VarValue>>> ship;
  for (VarId v : vars) {
    if (const smr::VarValue* val = store_.get(v)) ship.emplace_back(v, val->clone());
  }
  return ship;
}

void PartitionServer::deliver_move(const Command& cmd, ProcessId client) {
  const std::vector<VarId> vars = cmd.vars();
  const Time delivered = engine().now();

  if (cmd.move_dest != group()) {
    // Source: give up ownership immediately (delivery order defines who owns
    // what) and ship the values once they are final — when no task queued
    // before this one touches them — rather than when this move reaches the
    // head of the queue. The task that takes them out of the store still
    // runs in order, and pays the shipping CPU.
    std::vector<VarId> mine;
    for (VarId v : vars) {
      if (store_.release(v)) mine.push_back(v);
    }
    count_move(/*dest=*/false);
    exec_->when_settled(mine, [this, mine, dest = cmd.move_dest, id = cmd.id] {
      rmcast({dest}, net::make_msg<VarShipMsg>(id, group(), snapshot(mine)));
      // Settled here: a retransmission delivered later must not give up
      // (and ship) the variables a second time.
      completed_.insert(id);
    });
    const auto n = static_cast<std::int64_t>(mine.size());
    execute(
        cmd.id, cmd.trace_id, delivered, kMoveServicePerVar * (n + 1), {}, mine,
        [this, mine](const ReplyTiming&) {
          for (VarId v : mine) store_.take(v);
        },
        n);
    return;
  }

  // Destination: claim ownership now; wait for one shipment per source, then
  // install the values. A fused move then executes its command here.
  for (VarId v : vars) store_.claim(v, cmd.id);
  common::SmallSet<GroupId> sources;
  for (GroupId g : cmd.move_sources) {
    if (g != group()) sources.insert(g);
  }
  count_move(/*dest=*/true);
  Duration service = kMoveServicePerVar * static_cast<Duration>(vars.size() + 1);
  if (cmd.fused_move()) {
    count_command(/*multi=*/false);
    service += app_->service_time(cmd);
  }
  execute(
      cmd.id, cmd.trace_id, delivered, service, std::move(sources), vars,
      [this, cmd, vars, client, delivered](ReplyTiming timing) {
        timing.inputs_in = std::max(exec_->inputs_at(cmd.id), delivered);
        const auto& shipped = exec_->shipped(cmd.id);
        std::vector<VarId> installed;
        std::size_t failed = 0;
        for (VarId v : vars) {
          if (store_.contains(v)) {  // we already held it
            installed.push_back(v);
          } else if (auto f = shipped.find(v); f != shipped.end()) {
            store_.put(v, f->second->clone());
            installed.push_back(v);
          } else {
            // No source shipped it: the mapping was stale; give the claim up,
            // unless a later delivery already re-claimed or moved v.
            store_.release(v, cmd.id);
            ++failed;
          }
        }
        // A partial install is a failed move: the reply tells the requester
        // which variables really landed here so it caches only those, and
        // the command goes through the client's retry/fallback path. It
        // settles like a success, so a retransmission is answered from the
        // session.
        if (failed != 0) {
          bump(ctr_.moves_failed);
          record_instant(stats::InstantKind::kMoveFailed, cmd.id.value,
                         static_cast<std::int64_t>(failed));
          reply_to(client, cmd, ReplyCode::kRetry,
                   net::make_msg<smr::MoveResultMsg>(std::move(installed)), timing,
                   Settles::kMove);
          return;
        }
        record_instant(stats::InstantKind::kMoveApplied, cmd.id.value,
                       static_cast<std::int64_t>(installed.size()));
        net::MessagePtr app_reply;
        if (cmd.fused_move()) {
          smr::ExecutionView view{store_};
          app_reply = app_->execute(cmd, view);
        } else {
          app_reply = net::make_msg<smr::MoveResultMsg>(std::move(installed));
        }
        reply_to(client, cmd, ReplyCode::kOk, std::move(app_reply), timing, Settles::kMove);
      },
      static_cast<std::int64_t>(vars.size()));
}

// ---- create / delete ---------------------------------------------------------

void PartitionServer::deliver_create(const Command& cmd) {
  DSSMR_ASSERT(cmd.write_set.size() == 1);
  const VarId v = cmd.write_set[0];
  if (store_.owns(v)) {
    // Duplicate create (raced consults); the oracle answers nok. Still signal
    // so the oracle's wait terminates.
    rmcast({oracle_group_}, net::make_msg<SignalMsg>(cmd.id, group()));
    return;
  }
  store_.claim(v, cmd.id);
  bump(ctr_.creates);
  execute(cmd.id, cmd.trace_id, engine().now(), kCreateDeleteService, {}, {v},
          [this, v, id = cmd.id](const ReplyTiming&) {
            // Not gated on ownership: a move-out or delete delivered since has
            // its task queued behind this one, and takes the value from there.
            // Tasks run in delivery order, so every replica ships the same.
            if (!store_.contains(v)) store_.put(v, app_->make_default(v));
            // Execution-atomicity signal: the oracle replies to the client
            // only after the partition has applied the create.
            rmcast({oracle_group_}, net::make_msg<SignalMsg>(id, group()));
          });
}

void PartitionServer::deliver_delete(const Command& cmd) {
  DSSMR_ASSERT(cmd.write_set.size() == 1);
  const VarId v = cmd.write_set[0];
  store_.release(v);
  bump(ctr_.deletes);
  execute(cmd.id, cmd.trace_id, engine().now(), kCreateDeleteService, {}, {v},
          [this, v, id = cmd.id](const ReplyTiming&) {
            store_.take(v);
            rmcast({oracle_group_}, net::make_msg<SignalMsg>(id, group()));
          });
}

// ---- reliable-multicast inputs ------------------------------------------------

void PartitionServer::on_rmdeliver(ProcessId /*origin*/, const net::MessagePtr& payload) {
  if (const auto* ship = net::msg_cast<VarShipMsg>(payload)) {
    if (completed_.contains(ship->cmd_id)) return;  // late duplicate
    // The engine stores nothing for another replica of a group it heard
    // from, as replicas of one partition may ship different variable sets.
    exec_->arrive(ship->cmd_id, ship->from_group, ship->vars);
  }
  // Partitions do not wait on signals (only the oracle does, before
  // answering create/delete); other payloads are ignored.
}

}  // namespace dssmr::core
