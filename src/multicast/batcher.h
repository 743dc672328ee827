// Command batching for the atomic-multicast submission path.
//
// The per-command cost of the ordered path is dominated by submission fan-out:
// every amcast ships one SubmitToLog to every member of every destination
// group. A SubmitBatcher amortizes that across commands — submissions queue
// until the batch fills (`batch_size`) or a virtual-time bound expires
// (`batch_delay`), then every destination group receives one BatchSubmitMsg
// carrying all of its entries, with a single destination-set union per batch.
//
// Two tiers use it:
//  * Client tier: a BatchRelay process per rack (the paper's client-proxy
//    tier) collects the multicasts of that rack's clients. Clients hand
//    submissions over in-process — the relay models the proxy co-located
//    with the clients — and the relay ships from its own network endpoint.
//    The relay also carries the clients' unordered point-to-point messages
//    to a group (a command's first access consult): the same flush ships
//    them to the group's members as one DirectBatchMsg.
//  * Server tier: each GroupNode routes its remote submissions (timestamp
//    pushes, stamp re-disseminations) through an embedded batcher.
//
// Batching is off (batch_size == 0) by default, and an unbatched deployment
// constructs no batcher at all, keeping the message schedule byte-identical
// to the pre-batching code.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "consensus/paxos.h"
#include "multicast/directory.h"
#include "multicast/messages.h"
#include "net/network.h"
#include "sim/engine.h"
#include "stats/metrics.h"

namespace dssmr::multicast {

struct BatchConfig {
  /// Logical submissions per flush; 0 disables batching entirely.
  std::size_t batch_size = 0;
  /// Max virtual-time wait from the first queued submission.
  Duration batch_delay = usec(100);

  bool enabled() const { return batch_size > 0; }
};

/// Accumulates log-entry submissions and flushes them as one BatchSubmitMsg
/// per destination group (sent to every member; the leader sequences), plus
/// one DirectBatchMsg per group for queued point-to-point messages.
class SubmitBatcher {
 public:
  using FlushFn = std::function<void(Time flushed_at)>;

  SubmitBatcher() = default;

  /// Two-phase init: `self` must already be registered with the network.
  /// Interns the batch.* counters and the flush-size histogram in `metrics`.
  void init(net::Network& network, const Directory& directory, ProcessId self,
            BatchConfig config, stats::Metrics& metrics);

  /// Queues the StampEntries of one atomic multicast — one entry per
  /// destination group, derived once from the shared stamp payload.
  /// `on_flush` fires exactly once, when the batch leaves this process.
  void amcast(const AmcastMessage& msg, FlushFn on_flush = nullptr);

  /// Queues a single log entry for group `g` (timestamp pushes and stamp
  /// re-disseminations from the server tier).
  void submit(GroupId g, consensus::LogEntry entry);

  /// Queues an unordered message from `origin` to every member of group `g`;
  /// the members receive it as if `origin` had sent it point to point.
  void direct(GroupId g, ProcessId origin, net::MessagePtr payload);

  /// Ships everything queued now (size/timer triggers call this internally).
  void flush();

  /// Entries queued but not yet flushed (telemetry gauge).
  std::size_t pending_entries() const;

  /// Crash support: a halted batcher drops its queue — the in-flight
  /// submissions are lost exactly like messages of a crashed process, and
  /// client timeouts re-drive them.
  void halt();
  void restart();

 private:
  /// Counts one logical submission; flushes when the batch is full.
  void queued();
  void arm_timer();
  /// Sends `m` to the members of `g` (peers only when this process is one).
  void ship(GroupId g, const net::MessagePtr& m);

  net::Network* network_ = nullptr;
  const Directory* directory_ = nullptr;
  ProcessId self_ = kNoProcess;
  BatchConfig cfg_;
  bool halted_ = false;

  /// Per-group queues (std::map: flush order must be deterministic).
  std::map<GroupId, std::vector<consensus::LogEntry>> pending_;
  std::map<GroupId, std::vector<std::pair<ProcessId, net::MessagePtr>>> direct_;
  std::vector<FlushFn> flush_cbs_;
  std::size_t queued_items_ = 0;  // logical submissions since the last flush
  sim::TimerId timer_ = 0;

  stats::Counter* flushes_ctr_ = nullptr;
  stats::Counter* entries_ctr_ = nullptr;
  stats::Counter* full_flush_ctr_ = nullptr;
  stats::Counter* timer_flush_ctr_ = nullptr;
  stats::Histogram* size_hist_ = nullptr;
};

/// A client-tier proxy process owning one SubmitBatcher: the clients of one
/// rack enqueue in-process, the relay ships from its own endpoint. Send-only
/// (replies go directly from the partition leaders to the clients).
class BatchRelay final : public net::Actor {
 public:
  /// Two-phase init, after network registration.
  void init_relay(net::Network& network, const Directory& directory, BatchConfig config,
                  stats::Metrics& metrics) {
    batcher_.init(network, directory, pid(), config, metrics);
  }

  void on_message(ProcessId from, const net::MessagePtr& m) override {
    (void)from;
    (void)m;
  }

  SubmitBatcher& batcher() { return batcher_; }
  const SubmitBatcher& batcher() const { return batcher_; }

 private:
  SubmitBatcher batcher_;
};

}  // namespace dssmr::multicast
