// The oracle's variable->partition mapping and its placement policy (the
// paper's OracleStateMachine).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/assert.h"
#include "common/flat_map.h"
#include "common/types.h"

namespace dssmr::core {

/// Variable->partition map type shared by the oracle mapping and the S-SMR
/// static map (the client location cache is the same map with a prefetch bit
/// per entry). Open-addressing (see common/flat_map.h): locate() is
/// consulted on every command, so this is one of the hottest lookups in the
/// simulator.
using LocationMap = common::FlatMap<VarId, GroupId>;

/// Dynamic variable->partition mapping, replicated inside the oracle group.
/// All mutations happen while processing atomically delivered commands, so
/// every oracle replica holds an identical mapping.
class Mapping {
 public:
  explicit Mapping(std::vector<GroupId> partitions) : partitions_(std::move(partitions)) {
    DSSMR_ASSERT(!partitions_.empty());
    counts_.resize(partitions_.size(), 0);
    live_.resize(partitions_.size(), true);
  }

  bool contains(VarId v) const { return map_.contains(v); }

  /// Pre-sizes the table (deployments know the variable count up front).
  void reserve(std::size_t vars) { map_.reserve(vars); }

  /// Partition of `v`; kNoGroup when unmapped.
  GroupId locate(VarId v) const {
    auto it = map_.find(v);
    return it == map_.end() ? kNoGroup : it->second;
  }

  void place(VarId v, GroupId p) {
    auto it = map_.find(v);
    if (it != map_.end()) {
      counts_[index_of(it->second)]--;
      it->second = p;
    } else {
      map_.emplace(v, p);
    }
    counts_[index_of(p)]++;
  }

  void erase(VarId v) {
    auto it = map_.find(v);
    if (it == map_.end()) return;
    counts_[index_of(it->second)]--;
    map_.erase(it);
  }

  std::size_t var_count() const { return map_.size(); }
  const LocationMap& entries() const { return map_; }
  const std::vector<GroupId>& partitions() const { return partitions_; }

  /// Position of member `p` in partitions(); fails if `p` is not a member.
  std::size_t index_of(GroupId p) const {
    for (std::size_t i = 0; i < partitions_.size(); ++i) {
      if (partitions_[i] == p) return i;
    }
    DSSMR_FAIL("partition not in mapping");
  }

  /// Number of variables currently mapped to `p`.
  std::uint64_t load(GroupId p) const { return counts_[index_of(p)]; }

  /// Partition with the fewest variables among live (non-draining) partitions
  /// (ties -> lowest id).
  GroupId least_loaded() const {
    std::size_t best = partitions_.size();
    for (std::size_t i = 0; i < partitions_.size(); ++i) {
      if (!live_[i]) continue;
      if (best == partitions_.size() || counts_[i] < counts_[best]) best = i;
    }
    DSSMR_ASSERT_MSG(best != partitions_.size(), "no live partition in mapping");
    return partitions_[best];
  }

  // -- Membership (elastic repartitioning; see DESIGN.md "How elasticity
  // works"). Membership mutations, like placement mutations, only happen
  // while processing atomically delivered commands, so every oracle replica
  // transitions at the same point in the command sequence.

  /// Admits a freshly booted partition. It starts live and empty, so
  /// least_loaded() immediately favours it for new placements.
  void add_partition(GroupId p) {
    DSSMR_ASSERT_MSG(!is_member(p), "partition added twice");
    partitions_.push_back(p);
    counts_.push_back(0);
    live_.push_back(true);
  }

  /// Marks `p` draining: it stays a member (moves off it still resolve
  /// indices) but stops being a placement candidate.
  void set_draining(GroupId p) {
    live_[index_of(p)] = false;
  }

  bool is_member(GroupId p) const {
    for (GroupId g : partitions_) {
      if (g == p) return true;
    }
    return false;
  }

  /// Live == member and not draining. Unknown partitions are not live, so
  /// this doubles as the placement-candidate check.
  bool is_live(GroupId p) const {
    for (std::size_t i = 0; i < partitions_.size(); ++i) {
      if (partitions_[i] == p) return live_[i];
    }
    return false;
  }

  std::size_t live_count() const {
    std::size_t n = 0;
    for (bool l : live_) n += l ? 1 : 0;
    return n;
  }

  /// Appends every variable currently mapped to `p`, sorted by id. The sort
  /// makes the order canonical (independent of hash-table layout), which the
  /// rebalance planner relies on for replica-identical move plans.
  void vars_on(GroupId p, std::vector<VarId>& out) const {
    const std::size_t base = out.size();
    for (const auto& [v, loc] : map_) {
      if (loc == p) out.push_back(v);
    }
    std::sort(out.begin() + static_cast<std::ptrdiff_t>(base), out.end(),
              [](VarId a, VarId b) { return a.value < b.value; });
  }

 private:
  std::vector<GroupId> partitions_;
  std::vector<std::uint64_t> counts_;
  /// Parallel to partitions_: false while draining/retired.
  std::vector<bool> live_;
  LocationMap map_;
};

/// The DS-SMR (DSN 2016) policy: no global workload knowledge. New variables
/// go to the least-loaded partition (keeps load balanced). It MUST be a
/// deterministic function of the delivered command sequence: every oracle
/// replica runs its own instance over the same inputs and must reach the
/// same answers.
///
/// The paper's client algorithm only says "let P_d be one of the partitions
/// in C.dests" — the destination rule is a free design choice, so it is
/// configurable here (and the ablation bench compares the rules):
///  * kMostHeld (default): the involved partition already holding the most
///    of the command's variables (fewest moves now, directional merging ->
///    fast convergence). Ties — pervasive right after a scattered initial
///    placement — go to the lighter partition (fewest mapped variables),
///    which keeps the partitions' work even; only equal-load ties break
///    pseudo-randomly from the variable set, NOT by lowest partition id: a
///    fixed tie-break funnels every near-tied neighbourhood to the same
///    partition and collapses the whole state onto it. Most held is still
///    rich-get-richer on a connected graph that grows on-line (E8): a
///    partition holding more than a fifth above the mean share of variables
///    is therefore no destination while an involved partition below that
///    exists, and its variables move to the lighter one instead.
///  * kRandomInvolved: a pseudo-random involved partition (fully symmetric,
///    slowest convergence).
///  * kLeastLoaded: the involved partition with the fewest variables
///    (strongest balancing, most moves).
class DssmrPolicy {
 public:
  enum class DestRule : std::uint8_t { kMostHeld, kRandomInvolved, kLeastLoaded };

  DssmrPolicy() = default;
  explicit DssmrPolicy(DestRule rule) : rule_(rule) {}

  /// Partition for a newly created variable.
  GroupId place_new(const Mapping& map) const { return map.least_loaded(); }

  /// Destination partition when `vars` (spread over several partitions) must
  /// be collocated for a command.
  GroupId choose_destination(const std::vector<VarId>& vars, const Mapping& map) {
    // Held-variable counts per partition, indexed like map.partitions().
    // Runs on every multi-partition consult: a linear scan over the few
    // deployed partitions beats any hash map here.
    held_.assign(map.partitions().size(), 0);
    std::size_t involved_count = 0;
    for (VarId v : vars) {
      const GroupId p = map.locate(v);
      if (p == kNoGroup) continue;
      const std::size_t i = map.index_of(p);
      if (held_[i]++ == 0) ++involved_count;
    }
    DSSMR_ASSERT_MSG(involved_count > 0, "choose_destination with fully unmapped vars");
    // Involved partitions, in partition-id order (deterministic).
    involved_.clear();
    for (std::size_t i = 0; i < held_.size(); ++i) {
      if (held_[i] > 0) involved_.push_back(map.partitions()[i]);
    }

    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (VarId v : vars) h = (h ^ v.value) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 31;

    switch (rule_) {
      case DestRule::kRandomInvolved:
        return involved_[h % involved_.size()];
      case DestRule::kMostHeld: {
        // Crowded partitions are passed over while an involved one is not.
        // Then most held first, then the lightest; hash only what still ties.
        const auto crowded = [&map](GroupId p) { return is_crowded(map, p); };
        if (!std::all_of(involved_.begin(), involved_.end(), crowded)) {
          std::erase_if(involved_, crowded);
        }
        std::size_t most = 0;
        std::uint64_t lightest = std::numeric_limits<std::uint64_t>::max();
        for (GroupId p : involved_) {
          const std::size_t held = held_[map.index_of(p)];
          if (held > most || (held == most && map.load(p) < lightest)) {
            most = held;
            lightest = map.load(p);
          }
        }
        tied_.clear();
        for (GroupId p : involved_) {
          if (held_[map.index_of(p)] == most && map.load(p) == lightest) tied_.push_back(p);
        }
        return tied_[h % tied_.size()];
      }
      case DestRule::kLeastLoaded: {
        GroupId best = involved_[0];
        for (GroupId p : involved_) {
          if (map.load(p) < map.load(best)) best = p;
        }
        return best;
      }
    }
    return involved_[0];
  }

 private:
  /// More than a fifth (and one variable) above the mean number of variables
  /// per live partition.
  static bool is_crowded(const Mapping& map, GroupId p) {
    const std::uint64_t live = map.live_count();
    return 5 * map.load(p) * live > 6 * map.var_count() + 5 * live;
  }

  DestRule rule_ = DestRule::kMostHeld;
  /// Scratch buffers reused across calls (one policy instance per oracle
  /// replica; calls are sequential within a simulation).
  std::vector<std::size_t> held_;
  std::vector<GroupId> involved_;
  std::vector<GroupId> tied_;
};

/// Static map used by the S-SMR baseline: computed once at deployment time
/// (hash placement or an optimized graph partitioning) and shared read-only
/// by every client.
struct StaticMap {
  LocationMap location;
  std::vector<GroupId> partitions;

  GroupId locate(VarId v) const {
    auto it = location.find(v);
    DSSMR_ASSERT_MSG(it != location.end(), "S-SMR static map is missing a variable");
    return it->second;
  }
};

}  // namespace dssmr::core
