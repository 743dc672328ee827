// Simulated asynchronous network.
//
// Models the paper's testbed topology: processes live in racks; intra-rack
// hops are cheaper than inter-rack hops; link bandwidth adds a per-byte
// transfer cost (so shipping a large state variable during a `move` costs
// more than a signal). Channels are FIFO per sender/receiver pair, lossy
// only when a fault plan says so, and deliver nothing to or from crashed
// processes.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "common/flat_map.h"
#include "common/rng.h"
#include "common/types.h"
#include "net/message.h"
#include "sim/engine.h"

namespace dssmr::net {

/// A participant in the distributed system. Implementations register with a
/// Network, which assigns their ProcessId and routes deliveries to on_message.
class Actor {
 public:
  virtual ~Actor() = default;

  /// Called by the network, in virtual time, once per delivered message.
  virtual void on_message(ProcessId from, const MessagePtr& m) = 0;

  ProcessId pid() const { return pid_; }

 private:
  friend class Network;
  ProcessId pid_ = kNoProcess;
};

struct NetworkConfig {
  Duration intra_rack_latency = usec(50);
  Duration inter_rack_latency = usec(150);
  /// Uniform extra delay in [0, jitter] added per message.
  Duration jitter = usec(10);
  /// 1 Gbps = 125 bytes per microsecond.
  double bandwidth_bytes_per_usec = 125.0;
  /// Probability that any given message is silently lost.
  double drop_probability = 0.0;
};

struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  /// Total drops (sum of the attributed categories below).
  std::uint64_t messages_dropped = 0;
  std::uint64_t bytes_sent = 0;
  /// Drop attribution: a fault-injection run needs to distinguish "the sender
  /// was crashed" from "the link was cut" from "random loss" to explain where
  /// traffic went (messages_dropped alone conflates all of them).
  std::uint64_t dropped_sender_crashed = 0;
  std::uint64_t dropped_receiver_crashed = 0;
  std::uint64_t dropped_link_down = 0;
  std::uint64_t dropped_random = 0;
};

class Network {
 public:
  Network(sim::Engine& engine, NetworkConfig config, std::uint64_t seed);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers `actor` and assigns its ProcessId. The actor must outlive the
  /// network. `rack` selects the latency domain.
  ProcessId add_process(Actor& actor, int rack = 0);

  /// Sends `m` from `from` to `to`. Delivery is scheduled on the engine;
  /// crashed endpoints and unlucky draws drop the message.
  void send(ProcessId from, ProcessId to, MessagePtr m);

  /// Sends to every id in `dests` (duplicates allowed; all destinations
  /// share the same immutable payload — no per-destination copies).
  void multisend(ProcessId from, std::span<const ProcessId> dests, const MessagePtr& m);
  void multisend(ProcessId from, const std::vector<ProcessId>& dests, const MessagePtr& m) {
    multisend(from, std::span<const ProcessId>(dests), m);
  }

  /// Marks a process crashed: all in-flight and future traffic involving it
  /// is dropped until recover().
  void crash(ProcessId p);
  void recover(ProcessId p);
  bool crashed(ProcessId p) const {
    return p.value < crashed_.size() && crashed_[p.value] != 0;
  }

  /// Cuts / restores both directions of the link between two processes.
  /// While a link is down, traffic over it — including messages already in
  /// flight — is dropped. Used to inject network partitions in tests.
  void set_link(ProcessId a, ProcessId b, bool up);
  /// Directional variant: controls only `from` -> `to`, so asymmetric
  /// failures (a hears b, b never hears a) can be expressed.
  void set_link_directed(ProcessId from, ProcessId to, bool up);
  bool link_up(ProcessId from, ProcessId to) const;

  /// Cuts every link between the two sets (a full network partition).
  void partition_sets(const std::vector<ProcessId>& a, const std::vector<ProcessId>& b,
                      bool up);

  int rack_of(ProcessId p) const;
  sim::Engine& engine() { return engine_; }
  const NetworkStats& stats() const { return stats_; }
  const NetworkConfig& config() const { return config_; }

  /// Replaces the drop probability (used by fault injection mid-run).
  /// Out-of-range values are clamped to [0, 1] — Rng::chance would clamp
  /// silently anyway, and a plan asking for "150% loss" should behave like a
  /// dead network, not wrap around or be ignored.
  void set_drop_probability(double p);

 private:
  Duration transit_time(ProcessId from, ProcessId to, std::size_t bytes);
  /// Shared implementation of send/multisend with the payload size hoisted.
  void send_one(ProcessId from, ProcessId to, const MessagePtr& m, std::size_t bytes);

  sim::Engine& engine_;
  NetworkConfig config_;
  Rng rng_;
  std::vector<Actor*> processes_;
  std::vector<int> racks_;
  /// Directed: (from, to) order matters, so one direction of a pair can be
  /// down while the other stays up.
  static std::uint64_t link_key(ProcessId from, ProcessId to) {
    return (static_cast<std::uint64_t>(from.value) << 32) | to.value;
  }

  /// Crash flags, indexed by pid (dense: checked twice per message).
  std::vector<std::uint8_t> crashed_;
  /// Down directed links are rare (fault runs only); link_up() fast-paths on
  /// empty().
  std::unordered_set<std::uint64_t> down_links_;
  /// Earliest admissible arrival per (from,to) pair: channels are FIFO, like
  /// TCP.
  common::FlatMap<std::uint64_t, Time> fifo_front_;
  NetworkStats stats_;
};

}  // namespace dssmr::net
