// The oracle's variable->partition mapping and the pluggable placement
// policy (the paper's OracleStateMachine extension point).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "common/assert.h"
#include "common/flat_map.h"
#include "common/types.h"

namespace dssmr::core {

/// Variable->partition map type shared by the oracle mapping, the S-SMR
/// static map and the client location cache. Open-addressing (see
/// common/flat_map.h): locate() is consulted on every command, so this is
/// one of the hottest lookups in the simulator.
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
  std::size_t partition_count() const { return partitions_.size(); }
  const std::vector<GroupId>& partitions() const { return partitions_; }

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
  std::size_t index_of(GroupId p) const {
    for (std::size_t i = 0; i < partitions_.size(); ++i) {
      if (partitions_[i] == p) return i;
    }
    DSSMR_FAIL("partition not in mapping");
  }

  std::vector<GroupId> partitions_;
  std::vector<std::uint64_t> counts_;
  /// Parallel to partitions_: false while draining/retired.
  std::vector<bool> live_;
  LocationMap map_;
};

/// Placement decisions. Implementations MUST be deterministic functions of
/// the delivered command sequence: every oracle replica runs the same policy
/// instance over the same inputs and must reach the same answers.
class OraclePolicy {
 public:
  virtual ~OraclePolicy() = default;

  /// Partition for a newly created variable.
  virtual GroupId place_new(VarId v, const Mapping& map) = 0;

  /// Destination partition when `vars` (spread over several partitions) must
  /// be collocated for a command.
  virtual GroupId choose_destination(const std::vector<VarId>& vars, const Mapping& map) = 0;

  /// Workload-graph hint (edges between co-accessed variables). Default: ignore.
  virtual void on_hint(const std::vector<std::pair<VarId, VarId>>& edges) { (void)edges; }

  /// Variables created/deleted — keeps a workload graph's vertex set in sync.
  virtual void on_create(VarId v) { (void)v; }
  virtual void on_delete(VarId v) { (void)v; }

  /// Number of repartitionings computed so far (DynaStar-style policies).
  virtual std::uint64_t repartition_count() const { return 0; }

  /// Workload-graph size (DynaStar-style policies keep a hint graph; 0 for
  /// stateless policies). Sampled as telemetry gauges.
  virtual std::size_t workload_graph_vertices() const { return 0; }
  virtual std::size_t workload_graph_edges() const { return 0; }

  /// Prophecy prefetch (the locality fast path, see DESIGN.md): records that
  /// `vars` were accessed by one command. Called only by the oracle replica
  /// that answers a consult (the leader), for direct and ordered consults
  /// alike, so the co-access state is best-effort, leader-local soft state
  /// that a new leader rebuilds from the consults it answers. Prefetched
  /// locations are advisory, so a partial table costs prefetch hits, never
  /// correctness. The base class keeps a cheap bounded recent-co-access table;
  /// policies with a real workload graph (DynaStar) override
  /// prefetch_candidates() instead and may ignore this.
  virtual void note_co_access(const std::vector<VarId>& vars) {
    if (vars.size() < 2) return;
    const std::size_t n = std::min<std::size_t>(vars.size(), kCoAccessFeedCap);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i != j) co_access_[vars[i]].push(vars[j]);
      }
    }
  }

  /// Appends up to `k` variables recently co-accessed with `vars` (excluding
  /// `vars` themselves, no duplicates) to `out`. Breadth-first over the
  /// co-access rings: direct neighbours first, then neighbours-of-neighbours
  /// while budget remains — one hot command's ring members mostly repeat what
  /// the client already caches, so the transitive frontier is where the
  /// novel (cache-warming) candidates live. Deterministic.
  virtual void prefetch_candidates(const std::vector<VarId>& vars, std::size_t k,
                                   std::vector<VarId>& out) {
    const auto wanted = [&](VarId c) {
      return std::find(vars.begin(), vars.end(), c) == vars.end() &&
             std::find(out.begin(), out.end(), c) == out.end();
    };
    const std::size_t base = out.size();
    const std::size_t n = std::min<std::size_t>(vars.size(), kCoAccessFeedCap);
    for (std::size_t i = 0; i < n && out.size() - base < k; ++i) {
      auto it = co_access_.find(vars[i]);
      if (it == co_access_.end()) continue;
      const CoRing& ring = it->second;
      for (std::size_t s = 0; s < ring.count && out.size() - base < k; ++s) {
        const VarId c = ring.recent[s];
        if (wanted(c)) out.push_back(c);
      }
    }
    // Second hop: expand from the appended candidates themselves (out acts
    // as the BFS queue; entries appended here extend the frontier further,
    // still bounded by k).
    for (std::size_t f = base; f < out.size() && out.size() - base < k; ++f) {
      auto it = co_access_.find(out[f]);
      if (it == co_access_.end()) continue;
      const CoRing& ring = it->second;
      for (std::size_t s = 0; s < ring.count && out.size() - base < k; ++s) {
        const VarId c = ring.recent[s];
        if (wanted(c)) out.push_back(c);
      }
    }
  }

 private:
  /// Per-variable ring of the most recently co-accessed neighbours. Tiny and
  /// bounded: the table is a best-effort cache-warming signal, not a workload
  /// graph.
  struct CoRing {
    std::array<VarId, 8> recent{};
    std::uint8_t count = 0;
    std::uint8_t next = 0;

    void push(VarId v) {
      for (std::size_t i = 0; i < count; ++i) {
        if (recent[i] == v) return;  // already tracked; keep ring stable
      }
      recent[next] = v;
      next = static_cast<std::uint8_t>((next + 1) % recent.size());
      count = static_cast<std::uint8_t>(std::min<std::size_t>(count + 1, recent.size()));
    }
  };

  /// Only the first few variables of a wide command feed/probe the table:
  /// co-access is quadratic in the fed prefix and wide commands (move bulks,
  /// timeline fan-ins) would swamp it.
  static constexpr std::size_t kCoAccessFeedCap = 8;

  common::FlatMap<VarId, CoRing> co_access_;
};

/// The DS-SMR (DSN 2016) policy: no global workload knowledge. New variables
/// go to the least-loaded partition (keeps load balanced).
///
/// The paper's client algorithm only says "let P_d be one of the partitions
/// in C.dests" — the destination rule is a free design choice, so it is
/// configurable here (and the ablation bench compares the rules):
///  * kMostHeld (default): the involved partition already holding the most
///    of the command's variables (fewest moves now, directional merging ->
///    fast convergence). Ties — pervasive right after a scattered initial
///    placement — break pseudo-randomly from the variable set, NOT by lowest
///    partition id: a fixed tie-break funnels every near-tied neighbourhood
///    to the same partition and collapses the whole state onto it.
///  * kRandomInvolved: a pseudo-random involved partition (fully symmetric,
///    slowest convergence).
///  * kLeastLoaded: the involved partition with the fewest variables
///    (strongest balancing, most moves).
class DssmrPolicy : public OraclePolicy {
 public:
  enum class DestRule : std::uint8_t { kMostHeld, kRandomInvolved, kLeastLoaded };

  DssmrPolicy() = default;
  explicit DssmrPolicy(DestRule rule) : rule_(rule) {}

  GroupId place_new(VarId v, const Mapping& map) override {
    (void)v;
    return map.least_loaded();
  }

  GroupId choose_destination(const std::vector<VarId>& vars, const Mapping& map) override {
    // Held-variable counts per partition, indexed like map.partitions().
    // Runs on every multi-partition consult: a linear scan over the few
    // deployed partitions beats any hash map here.
    held_.assign(map.partitions().size(), 0);
    std::size_t involved_count = 0;
    for (VarId v : vars) {
      const GroupId p = map.locate(v);
      if (p == kNoGroup) continue;
      const std::size_t i = partition_index(map, p);
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
        std::size_t most = 0;
        for (GroupId p : involved_) {
          most = std::max(most, held_[partition_index(map, p)]);
        }
        tied_.clear();
        for (GroupId p : involved_) {
          if (held_[partition_index(map, p)] == most) tied_.push_back(p);
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
  std::size_t partition_index(const Mapping& map, GroupId p) const {
    const auto& parts = map.partitions();
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (parts[i] == p) return i;
    }
    DSSMR_FAIL("partition not in mapping");
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
