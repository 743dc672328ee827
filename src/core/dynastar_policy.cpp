#include "core/dynastar_policy.h"

#include <algorithm>

#include "common/assert.h"

namespace dssmr::core {

partition::NodeId DynaStarPolicy::node_of(VarId v) {
  auto it = var_to_node_.find(v);
  if (it != var_to_node_.end()) return it->second;
  const auto id = static_cast<partition::NodeId>(node_to_var_.size());
  var_to_node_.emplace(v, id);
  node_to_var_.push_back(v);
  graph_.touch(id);
  return id;
}

GroupId DynaStarPolicy::ideal_of(VarId v, const Mapping& map) const {
  if (ideal_.empty()) return kNoGroup;
  auto it = var_to_node_.find(v);
  if (it == var_to_node_.end() || it->second >= ideal_.size()) return kNoGroup;
  const std::uint32_t p = ideal_[it->second];
  if (p >= map.partition_count()) return kNoGroup;
  return map.partitions()[p];
}

GroupId DynaStarPolicy::place_new(VarId v, const Mapping& map) {
  const GroupId ideal = ideal_of(v, map);
  return ideal != kNoGroup ? ideal : map.least_loaded();
}

GroupId DynaStarPolicy::choose_destination(const std::vector<VarId>& vars,
                                           const Mapping& map) {
  // Candidates: each variable's ideal partition and each current partition.
  // Pick the candidate minimizing the number of variables that would move;
  // prefer ideal candidates on ties (they reduce future moves), then lowest
  // partition id (determinism).
  std::vector<GroupId> candidates;
  auto consider = [&candidates](GroupId p) {
    if (p != kNoGroup && std::find(candidates.begin(), candidates.end(), p) == candidates.end()) {
      candidates.push_back(p);
    }
  };
  for (VarId v : vars) consider(ideal_of(v, map));
  const std::size_t ideal_candidates = candidates.size();
  for (VarId v : vars) consider(map.locate(v));
  DSSMR_ASSERT(!candidates.empty());

  // Keep all candidates achieving the minimum move count; prefer ideal
  // candidates among them; break remaining ties pseudo-randomly from the
  // variable set (a fixed tie-break would funnel near-ties to one partition).
  std::size_t best_moves = vars.size() + 1;
  std::vector<std::size_t> minimal;
  for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
    std::size_t moves = 0;
    for (VarId v : vars) {
      if (map.locate(v) != candidates[ci]) ++moves;
    }
    if (moves < best_moves) {
      best_moves = moves;
      minimal.clear();
    }
    if (moves == best_moves) minimal.push_back(ci);
  }
  bool any_ideal = false;
  for (std::size_t ci : minimal) any_ideal = any_ideal || ci < ideal_candidates;
  if (any_ideal) {
    std::erase_if(minimal, [&](std::size_t ci) { return ci >= ideal_candidates; });
  }
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (VarId v : vars) h = (h ^ v.value) * 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 31;
  return candidates[minimal[h % minimal.size()]];
}

void DynaStarPolicy::on_hint(const std::vector<std::pair<VarId, VarId>>& edges) {
  for (const auto& [u, v] : edges) {
    if (u == v) continue;
    graph_.add_edge(node_of(u), node_of(v));
    ++hints_since_repartition_;
  }
  if (hints_since_repartition_ >= cfg_.repartition_every_hints) {
    force_repartition();
  }
}

void DynaStarPolicy::on_create(VarId v) { node_of(v); }

void DynaStarPolicy::on_delete(VarId v) {
  // Keep the vertex (its history may still be useful); it simply stops
  // receiving hints. Deleted variables are never asked about again.
  (void)v;
}

void DynaStarPolicy::preload_edge(VarId u, VarId v, partition::Weight w) {
  graph_.add_edge(node_of(u), node_of(v), w);
}

void DynaStarPolicy::force_repartition() {
  hints_since_repartition_ = 0;
  partition::Csr csr = graph_.build();
  if (csr.vertex_count() == 0) return;
  ideal_ = partition::partition_graph(csr, cfg_.partitioner).part;
  ++repartitions_;
}

}  // namespace dssmr::core
