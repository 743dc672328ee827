#include "multicast/batcher.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/assert.h"

namespace dssmr::multicast {
void SubmitBatcher::init(net::Network& network, const Directory& directory, ProcessId self,
                         BatchConfig config, stats::Metrics& metrics) {
  DSSMR_ASSERT_MSG(self != kNoProcess, "register the batcher's endpoint first");
  DSSMR_ASSERT_MSG(config.enabled(), "constructing a batcher with batching off");
  network_ = &network;
  directory_ = &directory;
  self_ = self;
  cfg_ = config;
  flushes_ctr_ = &metrics.counter_handle("batch.flushes");
  entries_ctr_ = &metrics.counter_handle("batch.entries");
  full_flush_ctr_ = &metrics.counter_handle("batch.flush_full");
  timer_flush_ctr_ = &metrics.counter_handle("batch.flush_timer");
  size_hist_ = &metrics.histogram("batch.size_entries");
}

void SubmitBatcher::amcast(const AmcastMessage& msg, FlushFn on_flush) {
  DSSMR_ASSERT_MSG(network_ != nullptr, "init() not called");
  if (halted_) return;
  auto stamp = net::make_msg<StampEntry>(msg);
  for (GroupId g : msg.dests) {
    pending_[g].push_back(stamp_log_entry(msg.id, g, stamp));
  }
  if (on_flush) flush_cbs_.push_back(std::move(on_flush));
  queued();
}

void SubmitBatcher::submit(GroupId g, consensus::LogEntry entry) {
  DSSMR_ASSERT_MSG(network_ != nullptr, "init() not called");
  if (halted_) return;
  pending_[g].push_back(std::move(entry));
  queued();
}

void SubmitBatcher::direct(GroupId g, ProcessId origin, net::MessagePtr payload) {
  DSSMR_ASSERT_MSG(network_ != nullptr, "init() not called");
  if (halted_) return;
  direct_[g].emplace_back(origin, std::move(payload));
  queued();
}

void SubmitBatcher::queued() {
  ++queued_items_;
  if (queued_items_ >= cfg_.batch_size) {
    full_flush_ctr_->inc();
    flush();
  } else {
    arm_timer();
  }
}

void SubmitBatcher::ship(GroupId g, const net::MessagePtr& m) {
  const std::span<const ProcessId> members = directory_->members(g);
  if (std::find(members.begin(), members.end(), self_) == members.end()) {
    network_->multisend(self_, members, m);
  } else {
    // A group node batching for its own group while following: peers only.
    for (ProcessId p : members) {
      if (p != self_) network_->send(self_, p, m);
    }
  }
}

void SubmitBatcher::flush() {
  if (pending_.empty() && direct_.empty()) return;
  network_->engine().cancel(timer_);
  timer_ = 0;
  std::size_t total = 0;
  // Direct messages ship first: each is a consult whose answer gates its
  // client's next send, while the log entries beside it wait for ordering.
  for (auto& [g, entries] : direct_) {
    total += entries.size();
    ship(g, net::make_msg<DirectBatchMsg>(g, std::move(entries)));
  }
  for (auto& [g, entries] : pending_) {
    total += entries.size();
    ship(g, net::make_msg<BatchSubmitMsg>(g, std::move(entries)));
  }
  flushes_ctr_->inc();
  entries_ctr_->inc(total);
  size_hist_->record(static_cast<std::int64_t>(total));
  pending_.clear();
  direct_.clear();
  queued_items_ = 0;
  const Time now = network_->engine().now();
  // Reset before firing: a callback may enqueue the next command.
  std::vector<FlushFn> cbs = std::exchange(flush_cbs_, {});
  for (FlushFn& cb : cbs) cb(now);
}

std::size_t SubmitBatcher::pending_entries() const {
  std::size_t n = 0;
  for (const auto& [g, entries] : pending_) n += entries.size();
  for (const auto& [g, entries] : direct_) n += entries.size();
  return n;
}

void SubmitBatcher::arm_timer() {
  if (halted_ || timer_ != 0) return;
  timer_ = network_->engine().schedule(cfg_.batch_delay, [this] {
    timer_ = 0;
    if (halted_) return;
    if (!pending_.empty() || !direct_.empty()) timer_flush_ctr_->inc();
    flush();
  });
}

void SubmitBatcher::halt() {
  halted_ = true;
  if (network_ != nullptr) network_->engine().cancel(timer_);
  timer_ = 0;
  pending_.clear();
  direct_.clear();
  flush_cbs_.clear();
  queued_items_ = 0;
}

void SubmitBatcher::restart() { halted_ = false; }

}  // namespace dssmr::multicast
