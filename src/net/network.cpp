#include "net/network.h"

#include <cmath>
#include <utility>

#include "common/assert.h"

namespace dssmr::net {

namespace {

double clamp01(double p) { return p < 0.0 ? 0.0 : (p > 1.0 ? 1.0 : p); }

}  // namespace

Network::Network(sim::Engine& engine, NetworkConfig config, std::uint64_t seed)
    : engine_(engine), config_(config), rng_(seed) {
  config_.drop_probability = clamp01(config_.drop_probability);
}

ProcessId Network::add_process(Actor& actor, int rack) {
  DSSMR_ASSERT_MSG(actor.pid_ == kNoProcess, "actor registered twice");
  const ProcessId id{static_cast<std::uint32_t>(processes_.size())};
  actor.pid_ = id;
  processes_.push_back(&actor);
  racks_.push_back(rack);
  return id;
}

int Network::rack_of(ProcessId p) const {
  DSSMR_ASSERT(p.value < racks_.size());
  return racks_[p.value];
}

Duration Network::transit_time(ProcessId from, ProcessId to, std::size_t bytes) {
  if (from == to) return usec(1);  // loopback
  const bool same_rack = rack_of(from) == rack_of(to);
  Duration d = same_rack ? config_.intra_rack_latency : config_.inter_rack_latency;
  if (config_.jitter > 0) d += rng_.range(0, config_.jitter);
  if (config_.bandwidth_bytes_per_usec > 0) {
    d += static_cast<Duration>(
        std::llround(static_cast<double>(bytes) / config_.bandwidth_bytes_per_usec));
  }
  return d;
}

void Network::send_one(ProcessId from, ProcessId to, const MessagePtr& m,
                       std::size_t bytes) {
  ++stats_.messages_sent;
  stats_.bytes_sent += bytes;

  // Attributed drop checks, in the same short-circuit order as before (the
  // random draw happens only for messages that survive the deterministic
  // checks, keeping the rng stream — and thus run records — stable).
  if (crashed(from)) {
    ++stats_.messages_dropped;
    ++stats_.dropped_sender_crashed;
    return;
  }
  if (!link_up(from, to)) {
    ++stats_.messages_dropped;
    ++stats_.dropped_link_down;
    return;
  }
  if (rng_.chance(config_.drop_probability)) {
    ++stats_.messages_dropped;
    ++stats_.dropped_random;
    return;
  }

  Time arrival = engine_.now() + transit_time(from, to, bytes);
  Time& front = fifo_front_[link_key(from, to)];
  if (arrival < front) arrival = front;
  front = arrival;

  engine_.schedule_at(arrival, [this, from, to, m] {
    if (crashed(to)) {
      ++stats_.messages_dropped;
      ++stats_.dropped_receiver_crashed;
      return;
    }
    if (!link_up(from, to)) {
      ++stats_.messages_dropped;
      ++stats_.dropped_link_down;
      return;
    }
    ++stats_.messages_delivered;
    processes_[to.value]->on_message(from, m);
  });
}

void Network::send(ProcessId from, ProcessId to, MessagePtr m) {
  DSSMR_ASSERT(m != nullptr);
  DSSMR_ASSERT(from.value < processes_.size() && to.value < processes_.size());
  send_one(from, to, m, m->size_bytes());
}

void Network::multisend(ProcessId from, std::span<const ProcessId> dests,
                        const MessagePtr& m) {
  DSSMR_ASSERT(m != nullptr);
  DSSMR_ASSERT(from.value < processes_.size());
  // The payload is immutable and shared: hoist the virtual size query out of
  // the loop and hand every destination the same MessagePtr (each scheduled
  // delivery takes one reference; nothing is deep-copied per destination).
  const std::size_t bytes = m->size_bytes();
  for (ProcessId d : dests) {
    DSSMR_ASSERT(d.value < processes_.size());
    send_one(from, d, m, bytes);
  }
}

void Network::crash(ProcessId p) {
  if (p.value >= crashed_.size()) crashed_.resize(p.value + 1, 0);
  crashed_[p.value] = 1;
}

void Network::recover(ProcessId p) {
  if (p.value < crashed_.size()) crashed_[p.value] = 0;
}

void Network::set_link(ProcessId a, ProcessId b, bool up) {
  set_link_directed(a, b, up);
  set_link_directed(b, a, up);
}

void Network::set_link_directed(ProcessId from, ProcessId to, bool up) {
  if (up) {
    down_links_.erase(link_key(from, to));
  } else {
    down_links_.insert(link_key(from, to));
  }
}

bool Network::link_up(ProcessId from, ProcessId to) const {
  return down_links_.empty() || !down_links_.contains(link_key(from, to));
}

void Network::set_drop_probability(double p) { config_.drop_probability = clamp01(p); }

void Network::partition_sets(const std::vector<ProcessId>& a,
                             const std::vector<ProcessId>& b, bool up) {
  for (ProcessId pa : a) {
    for (ProcessId pb : b) set_link(pa, pb, up);
  }
}

}  // namespace dssmr::net
