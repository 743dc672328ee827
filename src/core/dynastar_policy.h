// DynaStar-style oracle policy (extension; see DESIGN.md).
//
// The supplied paper draft's follow-up design: the oracle aggregates workload
// hints into a graph (variables = vertices, co-accesses = weighted edges),
// periodically recomputes an "ideal" partitioning with the multilevel graph
// partitioner, and resolves collocation destinations so as to minimize the
// number of variables that must move given the ideal partitioning and the
// variables' current locations.
//
// Determinism: repartitioning triggers on a fixed hint-count threshold and
// the partitioner itself is deterministic, so all oracle replicas hold
// identical state — exactly the requirement the draft calls out.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/mapping.h"
#include "partition/graph.h"
#include "partition/partitioner.h"

namespace dssmr::core {

class DynaStarPolicy : public OraclePolicy {
 public:
  struct Config {
    /// Recompute the ideal partitioning after this many hint edges.
    std::uint64_t repartition_every_hints = 2000;
    partition::PartitionerConfig partitioner;
  };

  explicit DynaStarPolicy(Config config) : cfg_(config) {}

  GroupId place_new(VarId v, const Mapping& map) override;
  GroupId choose_destination(const std::vector<VarId>& vars, const Mapping& map) override;
  void on_hint(const std::vector<std::pair<VarId, VarId>>& edges) override;
  void on_create(VarId v) override;
  void on_delete(VarId v) override;
  std::uint64_t repartition_count() const override { return repartitions_; }

  /// Seeds the workload graph (e.g. with a known social graph) before the
  /// run; optionally computes the initial ideal partitioning immediately.
  void preload_edge(VarId u, VarId v, partition::Weight w = 1);
  void force_repartition();

  std::size_t graph_vertex_count() const { return node_to_var_.size(); }
  std::size_t graph_edge_count() const { return graph_.edge_count(); }
  std::size_t workload_graph_edges() const override { return graph_edge_count(); }

 private:
  partition::NodeId node_of(VarId v);
  /// Ideal partition of `v` (kNoGroup when unknown / not yet partitioned).
  GroupId ideal_of(VarId v, const Mapping& map) const;

  Config cfg_;
  partition::GraphBuilder graph_;
  std::unordered_map<VarId, partition::NodeId> var_to_node_;
  std::vector<VarId> node_to_var_;
  std::vector<std::uint32_t> ideal_;  // per node; empty until first repartition
  std::uint64_t hints_since_repartition_ = 0;
  std::uint64_t repartitions_ = 0;
};

}  // namespace dssmr::core
