#include "core/client_proxy.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"

namespace dssmr::core {

using smr::Command;
using smr::CommandMsg;
using smr::CommandType;
using smr::ConsultMsg;
using smr::MoveResultMsg;
using smr::ProphecyMsg;
using smr::ReplyCode;
using smr::ReplyMsg;
using stats::SpanPhase;
using stats::InstantKind;

const char* to_string(Strategy s) {
  switch (s) {
    case Strategy::kStaticSsmr:
      return "S-SMR";
    case Strategy::kDssmr:
      return "DS-SMR";
  }
  return "?";
}

void ClientProxy::init_client(net::Network& network, const multicast::Directory& directory,
                              ClientConfig config, stats::Metrics& metrics) {
  init_client_node(network, directory);
  cfg_ = std::move(config);
  metrics_ = &metrics;
  auto handle = [&metrics](const char* name) { return &metrics.counter_handle(name); };
  ctr_ = {handle("client.ops"),       handle("client.consults"),
          handle("client.cache_hits"), handle("client.multi_partition"),
          handle("client.moves"),     handle("client.retries"),
          handle("client.fallbacks"), handle("client.timeouts"),
          handle("client.ok"),        handle("client.nok"),
          /*prefetch_installed=*/nullptr, /*prefetch_hits=*/nullptr};  // install_prefetch
  latency_hist_ = &metrics.histogram("client.latency_us");
  completions_series_ = &metrics.series("client.completions");
  moves_series_ = &metrics.series("moves_ts");
  DSSMR_ASSERT(cfg_.partitions != nullptr && !cfg_.partitions->empty());
  if (cfg_.strategy == Strategy::kStaticSsmr) {
    DSSMR_ASSERT_MSG(cfg_.static_map != nullptr, "S-SMR clients need a static map");
  } else {
    DSSMR_ASSERT_MSG(cfg_.oracle_group != kNoGroup, "DS-SMR clients need an oracle");
  }
}

void ClientProxy::record_phase(SpanPhase p, Time start, GroupId group, std::int64_t arg) {
  stats::SpanStore& sp = events();
  if (!sp.enabled() || root_span_ == 0) return;
  sp.record({.trace_id = cmd_.trace_id,
             .parent = root_span_,
             .phase = p,
             .start = start,
             .end = network().engine().now(),
             .node = pid().value,
             .group = group,
             .arg = arg});
}

void ClientProxy::decompose_reply(const ReplyMsg& r) {
  stats::SpanStore& sp = events();
  if (!sp.enabled() || root_span_ == 0) return;
  // Split [sent_at_, now] with the server's piggybacked timestamps. Clamping
  // keeps the cut points monotone inside the window, so the spans tile it
  // exactly even with odd timing: an all-zero ReplyTiming clamps every cut
  // up to sent_at_ (the whole window counts as reply), and timestamps from a
  // retransmitted delivery stay within the first-send window.
  const Time now = network().engine().now();
  const Time s = sent_at_;
  // Batched sends wait at the relay first; the flush time splits that wait
  // out of the amcast phase. Unbatched runs record no batch span at all.
  Time a = s;
  if (batched()) {
    const Time f = std::clamp(batch_flushed_at_, s, now);
    sp.record({.trace_id = cmd_.trace_id, .parent = root_span_, .phase = SpanPhase::kBatch,
               .start = s, .end = f, .node = pid().value, .group = r.from_group});
    a = f;
  }
  const Time d = std::clamp(r.timing.delivered_at, a, now);
  // A fused move's destination waits for its shipped variables from
  // delivery until the last shipment is in: that wait is the move phase.
  const Time m = r.timing.inputs_in != 0 ? std::clamp(r.timing.inputs_in, d, now) : d;
  const Time es = std::clamp(r.timing.exec_start, m, now);
  const Time ee = std::clamp(r.timing.exec_end, es, now);
  const GroupId g = r.from_group;
  sp.record({.trace_id = cmd_.trace_id, .parent = root_span_, .phase = SpanPhase::kAmcast,
             .start = a, .end = d, .node = pid().value, .group = g});
  if (r.timing.inputs_in != 0) {
    sp.record({.trace_id = cmd_.trace_id, .parent = root_span_, .phase = SpanPhase::kMove,
               .start = d, .end = m, .node = pid().value, .group = g,
               .arg = r.code == ReplyCode::kOk ? 0 : 1});
  }
  sp.record({.trace_id = cmd_.trace_id, .parent = root_span_, .phase = SpanPhase::kQueue,
             .start = m, .end = es, .node = pid().value, .group = g});
  sp.record({.trace_id = cmd_.trace_id, .parent = root_span_, .phase = SpanPhase::kExecute,
             .start = es, .end = ee, .node = pid().value, .group = g});
  sp.record({.trace_id = cmd_.trace_id, .parent = root_span_, .phase = SpanPhase::kReply,
             .start = ee, .end = now, .node = pid().value, .group = g});
}

std::optional<GroupId> ClientProxy::cached_location(VarId v) const {
  auto it = cache_.find(v);
  if (it == cache_.end()) return std::nullopt;
  return it->second.at;
}

void ClientProxy::install_prefetch(const ProphecyMsg& p) {
  // Default-off runs must not materialize `locality.*` names (the run record
  // would grow a section and break byte-identity with pre-locality builds),
  // so the counters come into being with the first prefetch.
  if (ctr_.prefetch_installed == nullptr) {
    ctr_.prefetch_installed = &metrics_->counter_handle("locality.prefetch_installed");
    ctr_.prefetch_hits = &metrics_->counter_handle("locality.prefetch_hits");
  }
  for (const auto& [v, loc] : p.prefetch) cache_[v] = {loc, /*prefetched=*/true};
  ctr_.prefetch_installed->inc(p.prefetch.size());
}

void ClientProxy::issue(Command cmd, DoneFn done) {
  DSSMR_ASSERT_MSG(phase_ == Phase::kIdle, "one outstanding command per client proxy");
  cmd_ = std::move(cmd);
  cmd_.id = fresh_id();
  // The command's stable logical id doubles as its trace id: it survives
  // retries and is copied onto its fused attempts, so all spans share one
  // tree.
  cmd_.trace_id = cmd_.id.value;
  done_ = std::move(done);
  retries_ = 0;
  direct_consult_.reset();
  outstanding_consults_.clear();
  issued_at_ = network().engine().now();
  fallback_start_ = 0;
  stats::SpanStore& sp = events();
  root_span_ = sp.enabled() ? sp.alloc_id() : 0;
  ctr_.ops->inc();
  start_attempt();
}

void ClientProxy::start_attempt() {
  if (cfg_.strategy == Strategy::kStaticSsmr) {
    // Static oracle: destinations are fixed and always correct.
    std::vector<GroupId> dests;
    for (VarId v : cmd_.vars()) {
      const GroupId p = cfg_.static_map->locate(v);
      if (std::find(dests.begin(), dests.end(), p) == dests.end()) dests.push_back(p);
    }
    DSSMR_ASSERT(!dests.empty());
    if (dests.size() > 1) ctr_.multi_partition->inc();
    send(cmd_, std::move(dests), Phase::kAwaitCommand);
    return;
  }

  if (cfg_.use_cache && cmd_.type == CommandType::kAccess) {
    // Cache fast path: all variables cached on the same partition.
    GroupId p = kNoGroup;
    bool usable = true;
    bool from_prefetch = false;
    for (VarId v : cmd_.vars()) {
      auto it = cache_.find(v);
      if (it == cache_.end() || (p != kNoGroup && it->second.at != p)) {
        usable = false;
        break;
      }
      p = it->second.at;
      from_prefetch = from_prefetch || it->second.prefetched;
    }
    if (usable && p != kNoGroup) {
      ctr_.cache_hits->inc();
      if (from_prefetch) {
        // A hit counts as a prefetch hit when any of its entries got there
        // via a prophecy prefetch; clear the bits so each prefetched entry
        // is credited at most once.
        for (VarId v : cmd_.vars()) cache_.find(v)->second.prefetched = false;
        ctr_.prefetch_hits->inc();
        stats::SpanStore& sp = events();
        if (sp.enabled() && root_span_ != 0) {
          const Time now = network().engine().now();
          sp.record({.trace_id = cmd_.trace_id, .parent = root_span_,
                     .phase = SpanPhase::kPrefetch, .start = now, .end = now,
                     .node = pid().value, .group = p},
                    /*fold=*/false);
        }
      }
      send(cmd_, {p}, Phase::kAwaitCommand);
      return;
    }
  }
  do_consult();
}

void ClientProxy::do_consult() {
  ctr_.consults->inc();
  const Time now = network().engine().now();
  if (phase_ != Phase::kConsult) {
    consult_start_ = now;  // retransmissions keep the window
    // New attempt: answers to the previous attempt's consults are superseded
    // (the cache was invalidated since) — purge their ids.
    outstanding_consults_.clear();
  }
  const MsgId id = fresh_id();
  events().record(InstantKind::kConsult, network().engine().now(), pid().value,
                  id.value, static_cast<std::int64_t>(cmd_.id.value));
  if (outstanding_consults_.size() >= kMaxOutstandingConsults) {
    outstanding_consults_.erase(outstanding_consults_.begin());  // drop the oldest
  }
  outstanding_consults_.push_back(id.value);
  phase_ = Phase::kConsult;
  auto consult = net::make_msg<ConsultMsg>(id, cmd_);
  if (cmd_.type == CommandType::kAccess && !direct_consult_) {
    // The first access consult reads the oracle leader's mapping without
    // ordering: the prophecy is advisory (servers check ownership and answer
    // retry). A re-consult means the previous answer was stale or lost —
    // after a retry, a failed move or a timeout — so it goes through the
    // log, where it follows the moves ordered before it and reaches the
    // group's real leader even if a deposed one answered the first time.
    direct_consult_ = id.value;
    send_to_group(cfg_.oracle_group, std::move(consult));
  } else {
    amcast_with_id(id, {cfg_.oracle_group}, std::move(consult));
  }
  // Consult retransmissions use entirely fresh ids: consults are read-only,
  // so re-asking is harmless and dodges the multicast dedup.
  resend_ = [this] { do_consult(); };
  arm_timeout();
}

void ClientProxy::on_prophecy(const ProphecyMsg& p) {
  if (phase_ != Phase::kConsult ||
      std::find(outstanding_consults_.begin(), outstanding_consults_.end(),
                p.consult_id.value) == outstanding_consults_.end()) {
    return;  // stale (a previous command's or an already-answered attempt's)
  }
  outstanding_consults_.clear();
  network().engine().cancel(timeout_);
  timeout_ = 0;
  events().record(InstantKind::kProphecy, network().engine().now(), pid().value,
                  p.consult_id.value, static_cast<std::int64_t>(p.locations.size()));
  if (p.code == ReplyCode::kNok && p.consult_id.value == direct_consult_) {
    // An unordered kNok is not final: the answering replica may be a new
    // leader that has not applied every create yet, or a deposed one behind
    // a cut. Re-consult through the log; only an ordered kNok ends the
    // command. The consult window stays open across both consults.
    do_consult();
    return;
  }
  record_phase(SpanPhase::kConsult, consult_start_, kNoGroup, retries_);

  if (p.code == ReplyCode::kNok) {
    finish(ReplyCode::kNok, nullptr);
    return;
  }

  if (cmd_.type == CommandType::kCreate) {
    send(cmd_, {p.dest, cfg_.oracle_group}, Phase::kAwaitCommand);
    return;
  }
  if (cmd_.type == CommandType::kDelete) {
    DSSMR_ASSERT(!p.locations.empty());
    send(cmd_, {p.locations[0].second, cfg_.oracle_group}, Phase::kAwaitCommand);
    return;
  }

  // Access: refresh cache, then route. The prophecy is the oracle's current
  // mapping, so it installs unconditionally.
  std::vector<GroupId> dests;
  for (const auto& [v, loc] : p.locations) {
    cache_[v] = {loc};
    if (std::find(dests.begin(), dests.end(), loc) == dests.end()) dests.push_back(loc);
  }
  if (!p.prefetch.empty()) install_prefetch(p);
  DSSMR_ASSERT(!dests.empty());

  if (dests.size() == 1) {
    send(cmd_, {dests[0]}, Phase::kAwaitCommand);
    return;
  }

  ctr_.multi_partition->inc();
  std::vector<GroupId> sources;
  for (GroupId g : dests) {
    if (g != p.dest) sources.push_back(g);
  }
  send_fused(p.dest, std::move(sources));
}

void ClientProxy::send_fused(GroupId dest, std::vector<GroupId> sources) {
  ctr_.moves->inc();
  const Time now = network().engine().now();
  moves_series_->add(now);
  // A fresh logical id per attempt: the destination settles a failed attempt
  // too, so the next one must not be answered with its outcome.
  Command attempt = smr::fuse_move(cmd_, fresh_id(), std::move(sources), dest);
  events().record(InstantKind::kMoveIssued, now, pid().value, attempt.id.value,
                  static_cast<std::int64_t>(dest.value));
  std::vector<GroupId> dests = smr::move_groups(attempt, cfg_.oracle_group);
  send(std::move(attempt), std::move(dests), Phase::kAwaitCommand);
}

void ClientProxy::send(Command c, std::vector<GroupId> dests, Phase next_phase) {
  awaited_reply_ = c.id;
  move_dest_ = c.fused_move() ? c.move_dest : kNoGroup;
  phase_ = next_phase;
  awaited_groups_ = dests.size();
  not_involved_.clear();
  sent_at_ = network().engine().now();  // first send; retransmissions keep the window
  batch_flushed_at_ = 0;
  auto payload = net::make_msg<CommandMsg>(std::move(c));
  // The flush callback pins down when the first send actually left the relay;
  // it checks the window is still the one it was armed for, so a late flush
  // of a retried window never pollutes a newer one. Retransmissions pass no
  // callback — the window keeps its first flush time.
  const Time sent = sent_at_;
  amcast_with_id(fresh_id(), dests, payload, [this, sent](Time flushed_at) {
    if (sent_at_ == sent && batch_flushed_at_ == 0) batch_flushed_at_ = flushed_at;
  });
  resend_ = [this, dests, payload] {
    amcast_with_id(fresh_id(), dests, payload);
    arm_timeout();
  };
  arm_timeout();
}

void ClientProxy::do_fallback() {
  // Termination guarantee: execute as an S-SMR multi-partition command on
  // every partition — no locality check can fail there.
  ctr_.fallbacks->inc();
  events().record(InstantKind::kFallback, network().engine().now(), pid().value,
                  cmd_.id.value, retries_);
  fallback_start_ = network().engine().now();
  DSSMR_ASSERT(cmd_.type == CommandType::kAccess);
  send(cmd_, *cfg_.partitions, Phase::kAwaitFallback);
}

void ClientProxy::retry() {
  ctr_.retries->inc();
  ++retries_;
  events().record(InstantKind::kRetry, network().engine().now(), pid().value, cmd_.id.value,
                  retries_);
  if (retries_ > cfg_.max_retries) {
    do_fallback();
  } else {
    do_consult();
  }
}

void ClientProxy::on_reply(ProcessId from, const net::MessagePtr& m) {
  (void)from;
  if (const auto* p = net::msg_cast<ProphecyMsg>(m)) {
    on_prophecy(*p);
    return;
  }
  const auto* r = net::msg_cast<ReplyMsg>(m);
  if (r == nullptr) return;
  if (phase_ == Phase::kIdle || r->cmd_id != awaited_reply_) return;  // stale/duplicate

  if (r->code == ReplyCode::kNotInvolved) {
    // A partition holding none of an S-SMR command's variables neither waits
    // for nor executes it; the partitions that do hold one answer. When no
    // destination holds any, the variables exist nowhere: the command's
    // answer is kNok, as a consult's is for unknown variables.
    not_involved_.insert(r->from_group);
    if (not_involved_.size() == awaited_groups_) {
      decompose_reply(*r);
      finish(ReplyCode::kNok, nullptr);
    }
    return;
  }

  switch (phase_) {
    case Phase::kAwaitCommand:
      // kRetired is kRetry's elastic sibling: the partition drained and left,
      // so the answer is the same — invalidate and re-route (the re-consult
      // sees the post-drain mapping).
      if (r->code == ReplyCode::kRetry || r->code == ReplyCode::kRetired) {
        network().engine().cancel(timeout_);
        timeout_ = 0;
        decompose_reply(*r);
        for (VarId v : cmd_.vars()) cache_.erase(v);
        // A failed fused move reports what did land at its destination, which
        // gave its claim on every variable no source shipped up (a stale
        // mapping): cache exactly the installed ones there.
        if (const auto* res = net::msg_cast<MoveResultMsg>(r->app_reply)) {
          for (VarId v : res->installed) cache_[v] = {r->from_group};
        }
        retry();
      } else {
        decompose_reply(*r);
        if (move_dest_ != kNoGroup) {
          for (VarId v : cmd_.vars()) cache_[v] = {move_dest_};
        }
        finish(r->code, r->app_reply);
      }
      break;

    case Phase::kAwaitFallback:
      if (r->code != ReplyCode::kRetry && r->code != ReplyCode::kRetired) {
        decompose_reply(*r);
        finish(r->code, r->app_reply);
      }
      break;

    case Phase::kIdle:
    case Phase::kConsult:
      break;
  }
}

void ClientProxy::finish(ReplyCode code, const net::MessagePtr& app_reply) {
  network().engine().cancel(timeout_);
  timeout_ = 0;
  phase_ = Phase::kIdle;
  resend_ = nullptr;

  const Time now = network().engine().now();
  (code == ReplyCode::kOk ? ctr_.ok : ctr_.nok)->inc();
  latency_hist_->record(now - issued_at_);
  completions_series_->add(now);
  // Windowed latency shares this exact site, so the recorder's merged
  // windows reproduce client.latency_us (one-branch no-op when disabled).
  metrics_->recorder().record_latency(now, now - issued_at_);

  stats::SpanStore& sp = events();
  if (sp.enabled() && root_span_ != 0) {
    if (fallback_start_ != 0) {
      // Server-side style view of the S-SMR fallback window; the window's
      // time is already folded as amcast/queue/execute/reply spans.
      sp.record({.trace_id = cmd_.trace_id,
                 .parent = root_span_,
                 .phase = SpanPhase::kFallback,
                 .start = fallback_start_,
                 .end = now,
                 .node = pid().value,
                 .arg = retries_},
                /*fold=*/false);
    }
    sp.record({.trace_id = cmd_.trace_id,
               .id = root_span_,
               .phase = SpanPhase::kCommand,
               .start = issued_at_,
               .end = now,
               .node = pid().value,
               .arg = code == ReplyCode::kOk ? 0 : 1});
    root_span_ = 0;
  }

  // Reset before invoking the callback: the application typically issues the
  // next command from inside it (closed loop).
  DoneFn done = std::move(done_);
  done_ = nullptr;
  if (done) done(code, app_reply);
}

void ClientProxy::arm_timeout() {
  network().engine().cancel(timeout_);
  timeout_ = network().engine().schedule(cfg_.op_timeout, [this] {
    timeout_ = 0;
    if (phase_ == Phase::kIdle || !resend_) return;
    ctr_.timeouts->inc();
    resend_();
  });
}

}  // namespace dssmr::core
