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
// and the host reports each group's input for a command with arrive(),
// together with the values that group shipped. It keeps one record per
// command: the groups heard from, their shipped values (read by the task
// through shipped()), when the last of them arrived (inputs_at()) and whether
// the task is queued (pending()). An input may arrive before its command is
// queued; the record is dropped when the command's task returns (or by
// forget(), for a command that never queues).
//
// It also owns the rule for when a value is final (Marandi et al.'s
// observation that only conflicting commands need to wait for each other): a
// task names the variables it touches, and when_settled(vars, fn) runs `fn`
// once no task queued before the call that touches any of `vars` is still
// queued or running. A partition ships a variable to a peer then, not when
// the shipping command reaches the head of its own queue, so a peer's head
// does not wait for unrelated work queued here.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "common/small_set.h"
#include "common/types.h"
#include "sim/engine.h"
#include "smr/app.h"

namespace dssmr::smr {

class ExecutionEngine {
 public:
  struct Task {
    MsgId id;
    /// Groups whose input for `id` must arrive before the task executes.
    common::SmallSet<GroupId> awaits;
    /// Variables the task may read or write, sorted: a when_settled() on any
    /// of them made while the task is queued or running waits for it.
    std::vector<VarId> touches;
    /// CPU time the execution occupies once its inputs are in.
    Duration service = 0;
    /// Executes the command (mutates state, sends the reply).
    sim::Callback run;
  };
  /// Values shipped in for one command by peer groups, by variable.
  using Shipped = common::FlatMap<VarId, std::shared_ptr<const VarValue>>;

  explicit ExecutionEngine(sim::Engine& engine) : engine_(engine) {}

  /// Queues `t`. A task with id 0 keeps no record: it awaits nothing and is
  /// never pending().
  void enqueue(Task t) {
    if (t.id != MsgId{}) records_[t.id].queued = true;
    queue_.push_back({std::move(t), {}});
    pump();
  }

  /// Runs `fn` once every task queued so far that touches one of `vars`
  /// (sorted) has returned: at once if none is queued or running, else right
  /// after the last of them returns. Tasks queued later do not delay it.
  void when_settled(std::span<const VarId> vars, sim::Callback fn) {
    for (auto it = queue_.rbegin(); it != queue_.rend(); ++it) {
      if (intersects(it->task.touches, vars)) {
        it->settled.push_back(std::move(fn));
        return;
      }
    }
    fn();
  }

  /// Records group `from`'s input for command `id` and the values it shipped
  /// (the first shipment of a variable wins); false, storing nothing, if the
  /// group's input was already recorded (another replica of `from` sent it).
  bool arrive(MsgId id, GroupId from,
              std::span<const std::pair<VarId, std::shared_ptr<const VarValue>>> vars = {}) {
    std::unique_ptr<Inputs>& in = records_[id].in;
    if (in == nullptr) in = std::make_unique<Inputs>();
    if (!in->arrived.insert(from)) return false;
    for (const auto& [v, val] : vars) in->shipped.emplace(v, val);
    in->last = engine_.now();
    pump();
    return true;
  }

  /// The values shipped in for `id` so far.
  const Shipped& shipped(MsgId id) const {
    static const Shipped kNone;
    auto it = records_.find(id);
    return it == records_.end() || it->second.in == nullptr ? kNone : it->second.in->shipped;
  }

  /// When the last group's input for `id` arrived; 0 if none has.
  Time inputs_at(MsgId id) const {
    auto it = records_.find(id);
    return it == records_.end() || it->second.in == nullptr ? 0 : it->second.in->last;
  }

  /// Whether `id`'s task is queued or executing.
  bool pending(MsgId id) const {
    auto it = records_.find(id);
    return it != records_.end() && it->second.queued;
  }

  /// Drops the record of a command that will never be queued.
  void forget(MsgId id) { records_.erase(id); }

  std::size_t queue_depth() const { return queue_.size(); }
  bool idle() const { return queue_.empty() && !executing_; }
  std::uint64_t executed_count() const { return executed_; }

  /// Total simulated CPU-busy time, for utilization metrics.
  Duration busy_time() const { return busy_time_; }

 private:
  /// The inputs heard for one command: the groups (bounded by the partition
  /// count) and the values they shipped.
  struct Inputs {
    common::SmallSet<GroupId> arrived;
    Shipped shipped;
    Time last = 0;
  };
  /// Every queued command takes a table slot, so its inputs are allocated
  /// only when the first one arrives: most commands await none.
  struct Record {
    std::unique_ptr<Inputs> in;
    bool queued = false;
  };

  /// A queued task and the when_settled() callbacks that wait for it.
  struct Queued {
    Task task;
    std::vector<sim::Callback> settled;
  };

  /// Whether two sorted variable lists share an element.
  static bool intersects(std::span<const VarId> a, std::span<const VarId> b) {
    for (auto i = a.begin(), j = b.begin(); i != a.end() && j != b.end();) {
      if (*i == *j) return true;
      if (*i < *j) {
        ++i;
      } else {
        ++j;
      }
    }
    return false;
  }

  bool inputs_in(const Task& t) const {
    if (t.awaits.empty()) return true;
    auto it = records_.find(t.id);
    if (it == records_.end() || it->second.in == nullptr) return false;
    const auto& in = it->second.in->arrived;  // both sorted
    return std::includes(in.begin(), in.end(), t.awaits.begin(), t.awaits.end());
  }

  void pump() {
    if (executing_ || queue_.empty()) return;
    const Task& head = queue_.front().task;
    if (!inputs_in(head)) return;  // wait; arrive() re-pumps
    executing_ = true;
    busy_time_ += head.service;
    engine_.schedule(head.service, [this] {
      Queued done = std::move(queue_.front());
      queue_.pop_front();
      ++executed_;
      done.task.run();
      records_.erase(done.task.id);
      for (sim::Callback& fn : done.settled) fn();
      executing_ = false;
      pump();
    });
  }

  sim::Engine& engine_;
  std::deque<Queued> queue_;
  common::FlatMap<MsgId, Record> records_;
  bool executing_ = false;
  std::uint64_t executed_ = 0;
  Duration busy_time_ = 0;
};

}  // namespace dssmr::smr
