// In-order command execution engine with input waits.
//
// A partition replica executes delivered commands strictly in delivery
// order, one at a time, each occupying the (simulated) CPU for its service
// time. A multi-partition command at the head of the queue may additionally
// wait for inputs from other groups (shipped variables, signals); everything
// behind it blocks — this serialization is precisely why multi-partition
// commands cap S-SMR's scalability, so the model must capture it.
//
// The engine owns that one waiting rule: a task names the groups it awaits,
// and the host reports each group's input for a command with arrive(). An
// input may arrive before its command is queued; the record is dropped when
// the command's task runs (or by forget(), for a command that never queues).
#pragma once

#include <cstdint>
#include <deque>

#include "common/flat_map.h"
#include "common/small_set.h"
#include "common/types.h"
#include "sim/engine.h"

namespace dssmr::smr {

class ExecutionEngine {
 public:
  struct Task {
    MsgId id;
    /// Groups whose input for `id` must arrive before the task executes.
    common::SmallSet<GroupId> awaits;
    /// CPU time the execution occupies once its inputs are in.
    Duration service = 0;
    /// Called once, when the task first reaches the head of the queue
    /// (e.g. to ship local variables to peer partitions).
    sim::Callback on_head;
    /// Executes the command (mutates state, sends the reply).
    sim::Callback run;
  };

  explicit ExecutionEngine(sim::Engine& engine) : engine_(engine) {}

  void enqueue(Task t) {
    queue_.push_back(std::move(t));
    pump();
  }

  /// Records group `from`'s input for command `id`; false if it was already
  /// recorded (another replica of `from` sent the same input).
  bool arrive(MsgId id, GroupId from) {
    if (!arrived_[id].insert(from)) return false;
    pump();
    return true;
  }

  /// Drops the inputs recorded for a command that will never be queued.
  void forget(MsgId id) { arrived_.erase(id); }

  std::size_t queue_depth() const { return queue_.size(); }
  bool idle() const { return queue_.empty() && !executing_; }
  std::uint64_t executed_count() const { return executed_; }

  /// Total simulated CPU-busy time, for utilization metrics.
  Duration busy_time() const { return busy_time_; }

 private:
  bool inputs_in(const Task& t) const {
    if (t.awaits.empty()) return true;
    auto it = arrived_.find(t.id);
    if (it == arrived_.end()) return false;
    for (GroupId g : t.awaits) {
      if (!it->second.contains(g)) return false;
    }
    return true;
  }

  void pump() {
    if (executing_ || queue_.empty()) return;
    Task& head = queue_.front();
    if (head.on_head) {
      sim::Callback fn = std::move(head.on_head);
      fn();
      // on_head may have re-entered pump() via arrive(); restart cleanly.
      if (executing_ || queue_.empty()) return;
    }
    if (!inputs_in(queue_.front())) return;  // wait; arrive() re-pumps
    executing_ = true;
    busy_time_ += queue_.front().service;
    engine_.schedule(queue_.front().service, [this] {
      Task done = std::move(queue_.front());
      queue_.pop_front();
      ++executed_;
      arrived_.erase(done.id);
      done.run();
      executing_ = false;
      pump();
    });
  }

  sim::Engine& engine_;
  std::deque<Task> queue_;
  /// Inputs per command, by sending group (bounded by the partition count).
  common::FlatMap<MsgId, common::SmallSet<GroupId>> arrived_;
  bool executing_ = false;
  std::uint64_t executed_ = 0;
  Duration busy_time_ = 0;
};

}  // namespace dssmr::smr
