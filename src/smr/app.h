// Application-facing abstractions of the replication library.
//
// Mirrors the Eyrie API surface the paper describes: `VarValue` is the C++
// analogue of PRObject (a partially replicated data item), `VariableStore`
// is a partition replica's one table of the items it owns and the values it
// holds, and `AppStateMachine` is the PartitionStateMachine the service
// designer implements. Application code is written against the value side of
// these types only — it never sees partitions, ownership, moves, or the
// multicast layer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/flat_map.h"
#include "common/types.h"
#include "net/message.h"

namespace dssmr::smr {

struct Command;  // defined in smr/command.h; forward-declared to avoid a cycle

/// A partially replicated data item. Implementations must be deep-copyable
/// (items are cloned when shipped between partitions) and know their
/// serialized size (drives the network bandwidth model for moves).
struct VarValue {
  virtual ~VarValue() = default;
  virtual std::unique_ptr<VarValue> clone() const = 0;
  virtual std::size_t size_bytes() const = 0;
};

/// A partition replica's variables: one slot per variable, holding who
/// claims it and its value. The variable is owned while the slot has a claim
/// (the id of the delivery that last brought it here: a move to here, a
/// create, or kPreloaded). Ownership changes when a command is delivered and
/// values move when tasks execute, so a slot may be owned with its value
/// still in flight, or given up with its value not yet shipped; a slot with
/// neither is dropped. Apps use only the value side (contains/get/put/take).
class VariableStore {
 public:
  /// The claim of a preloaded variable; no command has this id.
  static constexpr MsgId kPreloaded{std::numeric_limits<std::uint64_t>::max()};

  bool contains(VarId v) const { return get(v) != nullptr; }

  VarValue* get(VarId v) { return const_cast<VarValue*>(std::as_const(*this).get(v)); }
  const VarValue* get(VarId v) const {
    auto it = slots_.find(v);
    return it == slots_.end() ? nullptr : it->second.value.get();
  }

  void put(VarId v, std::unique_ptr<VarValue> value) {
    DSSMR_ASSERT(value != nullptr);
    slots_[v].value = std::move(value);
  }

  /// Removes and returns the value (nullptr when absent).
  std::unique_ptr<VarValue> take(VarId v) {
    auto it = slots_.find(v);
    if (it == slots_.end()) return nullptr;
    auto value = std::move(it->second.value);
    if (it->second.claim == MsgId{}) slots_.erase(it);
    return value;
  }

  std::size_t total_bytes() const {
    std::size_t n = 0;
    for (const auto& [v, slot] : slots_) n += slot.value ? slot.value->size_bytes() : 0;
    return n;
  }

  bool owns(VarId v) const {
    auto it = slots_.find(v);
    return it != slots_.end() && it->second.claim != MsgId{};
  }
  /// Owned, or holding a value not yet shipped away.
  bool holds(VarId v) const { return slots_.contains(v); }
  std::size_t owned_count() const { return owned_; }
  /// The owned variables, sorted.
  std::vector<VarId> owned_vars() const {
    std::vector<VarId> out;
    for (const auto& [v, slot] : slots_) {
      if (slot.claim != MsgId{}) out.push_back(v);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Makes `by` the claimant of `v` (taking ownership if `v` was not owned).
  void claim(VarId v, MsgId by) {
    DSSMR_ASSERT(by != MsgId{});
    Slot& slot = slots_[v];
    if (slot.claim == MsgId{}) ++owned_;
    slot.claim = by;
  }

  /// Gives `v` up; when `by` is set, only while `by` still holds the claim.
  /// Returns whether `v` was given up.
  bool release(VarId v, MsgId by = MsgId{}) {
    auto it = slots_.find(v);
    if (it == slots_.end() || it->second.claim == MsgId{}) return false;
    if (by != MsgId{} && it->second.claim != by) return false;
    --owned_;
    it->second.claim = MsgId{};
    if (it->second.value == nullptr) slots_.erase(it);
    return true;
  }

 private:
  struct Slot {
    MsgId claim{};
    std::unique_ptr<VarValue> value;
  };
  common::FlatMap<VarId, Slot> slots_;
  std::size_t owned_ = 0;
};

/// The view a command executes against: the partition's own store plus any
/// values shipped in from other partitions for this command. Writes to
/// borrowed (remote) values mutate only the local temporary copy — the owning
/// partition applies the same deterministic command to its own copy, which is
/// exactly the S-SMR execution model.
class ExecutionView {
 public:
  explicit ExecutionView(VariableStore& local) : local_(local) {}

  /// Lends a remote value (already cloned by the caller).
  void lend(VarId v, std::unique_ptr<VarValue> value) {
    if (value != nullptr) borrowed_[v] = std::move(value);
  }

  bool contains(VarId v) const { return local_.contains(v) || borrowed_.contains(v); }
  bool is_local(VarId v) const { return local_.contains(v); }

  VarValue* get(VarId v) {
    if (VarValue* p = local_.get(v); p != nullptr) return p;
    auto it = borrowed_.find(v);
    return it == borrowed_.end() ? nullptr : it->second.get();
  }

  template <class T>
  T* get_as(VarId v) {
    return dynamic_cast<T*>(get(v));
  }

 private:
  VariableStore& local_;
  std::unordered_map<VarId, std::unique_ptr<VarValue>> borrowed_;
};

/// Server-side application logic (the paper's PartitionStateMachine).
/// Implementations must be deterministic: every replica executes the same
/// command sequence against equivalent state.
class AppStateMachine {
 public:
  virtual ~AppStateMachine() = default;

  /// Executes `cmd` against `view`. All variables the command accesses are in
  /// `view` unless they do not exist anywhere (deleted / never created) — the
  /// application must tolerate missing variables and reply accordingly.
  /// Returns the application-level reply (may be nullptr for "ok, no data").
  virtual net::MessagePtr execute(const Command& cmd, ExecutionView& view) = 0;

  /// Initial value for a newly created variable.
  virtual std::unique_ptr<VarValue> make_default(VarId v) = 0;

  /// Simulated CPU cost of executing `cmd` on a replica.
  virtual Duration service_time(const Command& cmd) const = 0;
};

/// Factory so each partition replica gets its own state machine instance.
using AppFactory = std::function<std::unique_ptr<AppStateMachine>()>;

}  // namespace dssmr::smr
