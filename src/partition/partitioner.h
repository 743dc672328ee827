// Multilevel k-way graph partitioner — the repository's METIS substitute.
//
// Classic three-phase scheme (Karypis & Kumar):
//   1. Coarsening by heavy-edge matching until the graph is small.
//   2. Greedy balanced initial partitioning of the coarsest graph.
//   3. Uncoarsening with boundary FM-style refinement at every level.
//
// The implementation is completely deterministic (vertex order breaks all
// ties), which the oracle requires: every oracle replica recomputes the same
// "ideal" partitioning from the same workload graph.
#pragma once

#include <cstdint>
#include <vector>

#include "partition/graph.h"

namespace dssmr::partition {

struct PartitionerConfig {
  std::uint32_t k = 2;
  /// Maximum part weight = imbalance * (total / k).
  double imbalance = 1.05;
  /// Refinement sweeps per level.
  int refine_passes = 8;
};

struct PartitionResult {
  std::vector<std::uint32_t> part;   // size n, values in [0, k)
  Weight cut = 0;                    // weighted edge cut
  std::vector<Weight> part_weights;  // size k
};

/// Partitions `g` into cfg.k balanced parts minimizing edge cut.
PartitionResult partition_graph(const Csr& g, const PartitionerConfig& cfg);

/// Baseline placement: vertex v -> v % k (what a hash-placement scheme does).
std::vector<std::uint32_t> hash_partition(std::size_t n, std::uint32_t k);

}  // namespace dssmr::partition
