// Client proxy (Algorithm "DS-SMR Client Proxy" of the paper).
//
// The application calls issue(cmd, done) and eventually receives a reply; the
// proxy hides the whole partitioning machinery:
//
//   1. Optionally answer the destination question from the location cache
//      (Section "Performance optimizations"); otherwise consult the oracle.
//      A command's first access consult goes point to point to the oracle
//      replicas and the current leader answers it from its mapping; every
//      later consult (after a retry, a failed move or a timeout) and every
//      create/delete consult is ordered through the oracle's log, so it sees
//      the moves and membership changes ordered before it. An unordered
//      `nok` (variable unknown) is re-checked through the log before it
//      ends the command: the answering leader may not have applied a create
//      that already completed.
//   2. If the prophecy names one partition, multicast the command to it.
//   3. If it spans several, the command rides its own move (a fused move,
//      smr::fuse_move): one multicast to {oracle} ∪ sources ∪ {destination},
//      under a fresh id per attempt. The sources ship the variables, the
//      oracle updates its mapping, and the destination installs them,
//      executes the command and replies. This departs from the paper, whose
//      client waits for a move's confirmation before multicasting the
//      command (see DESIGN.md).
//   4. A `retry` answer (a stale location, or a fused move that found a
//      variable missing) means the mapping changed under us: invalidate the
//      cache and go back to 1. After `max_retries` attempts, fall back to
//      S-SMR — multicast to every partition, of which those holding one of
//      its variables execute it — which always terminates.
//
// The same proxy also implements the S-SMR baseline (`kStaticSsmr`): the
// oracle is a local immutable map and commands go straight to the statically
// assigned partitions (multi-partition commands use the S-SMR execution).
//
// Every network interaction is guarded by a timeout that re-sends with a
// fresh multicast id; logical command ids stay stable so servers answer
// retransmissions from their reply caches (end-to-end exactly-once).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/flat_map.h"
#include "common/small_set.h"
#include "common/types.h"
#include "core/mapping.h"
#include "multicast/client.h"
#include "smr/command.h"
#include "stats/metrics.h"

namespace dssmr::core {

enum class Strategy : std::uint8_t {
  kStaticSsmr,  // S-SMR: static map, no oracle service, no moves
  kDssmr,       // DS-SMR: dynamic oracle, client-issued (fused) moves
};

const char* to_string(Strategy s);

struct ClientConfig {
  Strategy strategy = Strategy::kDssmr;
  bool use_cache = true;
  int max_retries = 3;
  Duration op_timeout = msec(250);
  GroupId oracle_group = kNoGroup;
  /// The live partitions, where the S-SMR fallback goes. Points at the
  /// deployment's address-stable live-group list: under elastic
  /// repartitioning retired partitions drop out and added ones join, so a
  /// fallback never waits on a drained group.
  const std::vector<GroupId>* partitions = nullptr;
  /// Required for kStaticSsmr.
  std::shared_ptr<const StaticMap> static_map;
};

/// One location-cache entry: where the variable was last seen, and whether
/// that location came from a prophecy prefetch not yet credited as a hit.
/// Fits the 16 bytes of a bare (VarId, GroupId) entry.
struct CachedLocation {
  GroupId at;
  bool prefetched = false;
};
using LocationCache = common::FlatMap<VarId, CachedLocation>;

class ClientProxy : public multicast::ClientNode {
 public:
  using DoneFn = std::function<void(smr::ReplyCode, const net::MessagePtr& app_reply)>;

  void init_client(net::Network& network, const multicast::Directory& directory,
                   ClientConfig config, stats::Metrics& metrics);

  /// Issues one command; `done` fires exactly once. One outstanding command
  /// per proxy (clients are closed-loop, as in the paper's evaluation).
  void issue(smr::Command cmd, DoneFn done);

  bool busy() const { return phase_ != Phase::kIdle; }

  /// Location-cache introspection (tests).
  std::optional<GroupId> cached_location(VarId v) const;
  /// Cached-entry count (telemetry gauge).
  std::size_t cache_size() const { return cache_.size(); }
  const ClientConfig& config() const { return cfg_; }

 protected:
  void on_reply(ProcessId from, const net::MessagePtr& m) override;

 private:
  enum class Phase : std::uint8_t {
    kIdle,
    kConsult,
    kAwaitCommand,
    kAwaitFallback,
  };

  void start_attempt();
  void do_consult();
  void on_prophecy(const smr::ProphecyMsg& p);
  /// Multicasts one attempt of the command as a fused move to `dest`.
  void send_fused(GroupId dest, std::vector<GroupId> sources);
  /// Multicasts `c` (the command, or one fused attempt of it) to `dests` and
  /// awaits its reply.
  void send(smr::Command c, std::vector<GroupId> dests, Phase next_phase);
  /// One more attempt after a kRetry/kRetired answer (a failed fused move too):
  /// counts it, then falls back once `max_retries` are spent, else
  /// re-consults.
  void retry();
  void do_fallback();
  void finish(smr::ReplyCode code, const net::MessagePtr& app_reply);
  void arm_timeout();

  /// The deployment's event store.
  stats::SpanStore& events() { return metrics_->spans(); }
  /// Folds one client-attributed phase span [start, now] into the trace.
  void record_phase(stats::SpanPhase p, Time start, GroupId group, std::int64_t arg = 0);
  /// Decomposes the post-send window [sent_at_, now] into amcast / queue /
  /// execute / reply spans using the server timestamps piggybacked on `r`
  /// (plus a leading batch span when submissions ride a batcher, and a move
  /// span for a fused move's wait for its shipped variables).
  void decompose_reply(const smr::ReplyMsg& r);

  ClientConfig cfg_;
  stats::Metrics* metrics_ = nullptr;

  /// Interned counter handles (resolved once in init_client); hot-path inc()
  /// avoids the per-call map lookup of Metrics::inc.
  struct Counters {
    stats::Counter* ops;
    stats::Counter* consults;
    stats::Counter* cache_hits;
    stats::Counter* multi_partition;
    stats::Counter* moves;
    stats::Counter* retries;
    stats::Counter* fallbacks;
    stats::Counter* timeouts;
    stats::Counter* ok;
    stats::Counter* nok;
    /// Locality fast path: interned by the first install_prefetch, so
    /// prefetch-off runs never materialize `locality.*` counters and their
    /// run records stay byte-identical.
    stats::Counter* prefetch_installed;
    stats::Counter* prefetch_hits;
  } ctr_{};

  /// Interned histogram/series handles, same rationale as ctr_: finish() and
  /// send_fused run per command, so the by-name map lookups add up.
  stats::Histogram* latency_hist_ = nullptr;
  stats::TimeSeries* completions_series_ = nullptr;
  stats::TimeSeries* moves_series_ = nullptr;

  Phase phase_ = Phase::kIdle;
  smr::Command cmd_;
  DoneFn done_;
  int retries_ = 0;
  /// Id of the current command's direct consult, once sent: only its first
  /// access consult skips the oracle's log (see do_consult), and a kNok
  /// answer to it is re-checked through the log (see on_prophecy).
  std::optional<std::uint64_t> direct_consult_;
  Time issued_at_ = 0;
  /// Consult ids issued for the current attempt: retransmissions use fresh
  /// ids (see do_consult), and with timeouts shorter than the round trip the
  /// answer to an *older* consult may arrive first — it is equally valid, so
  /// any of them is accepted. Bounded: a new attempt purges the previous
  /// attempt's ids, and within one attempt only the newest
  /// kMaxOutstandingConsults survive (older answers are stale enough that
  /// re-asking beats accepting them).
  static constexpr std::size_t kMaxOutstandingConsults = 8;
  std::vector<std::uint64_t> outstanding_consults_;
  MsgId awaited_reply_{0};
  /// Destinations of the current command send, and those that answered
  /// kNotInvolved: an S-SMR execution's outcome comes from the partitions
  /// that hold its variables, so the others' answers only matter when every
  /// destination gave one (see on_reply).
  std::size_t awaited_groups_ = 0;
  common::SmallSet<GroupId> not_involved_;
  /// Destination of the current send when it is a fused move, else kNoGroup.
  GroupId move_dest_ = kNoGroup;
  std::function<void()> resend_;
  sim::TimerId timeout_ = 0;

  /// Span bookkeeping. The proxy is in exactly one phase at a time and phase
  /// transitions are synchronous, so tracking each segment's start suffices
  /// to attribute every microsecond of [issued_at_, finish] to one phase.
  std::uint64_t root_span_ = 0;  // pre-allocated root span id (0 = tracing off)
  Time consult_start_ = 0;
  Time sent_at_ = 0;       // first multicast of the current command window
  /// When the batch carrying the current command's first send left the relay
  /// (0 until the flush callback fires; only set on the batched path).
  Time batch_flushed_at_ = 0;
  Time fallback_start_ = 0;

  /// Location cache (Section "Performance optimizations"): consulted on
  /// every access command, so it is an open-addressing map like the
  /// oracle's. Every write other than a prefetch install clears the entry's
  /// `prefetched` bit, so a prefetch hit is credited only to a location the
  /// prefetch itself supplied.
  LocationCache cache_;

  void install_prefetch(const smr::ProphecyMsg& p);
};

}  // namespace dssmr::core
