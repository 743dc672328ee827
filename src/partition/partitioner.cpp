#include "partition/partitioner.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "common/assert.h"

namespace dssmr::partition {
namespace {

/// Stop coarsening below this many vertices (or 8 per part, if more).
constexpr std::size_t kCoarsestSize = 128;

struct Level {
  Csr graph;
  /// fine vertex -> coarse vertex of the NEXT level (empty at the coarsest).
  std::vector<NodeId> to_coarse;
};

/// Heavy-edge matching; returns the fine->coarse map and the coarse size.
std::pair<std::vector<NodeId>, std::size_t> match(const Csr& g) {
  const std::size_t n = g.vertex_count();
  std::vector<NodeId> mate(n, static_cast<NodeId>(-1));
  for (NodeId u = 0; u < n; ++u) {
    if (mate[u] != static_cast<NodeId>(-1)) continue;
    NodeId best = static_cast<NodeId>(-1);
    Weight best_w = -1;
    for (std::uint64_t i = g.xadj[u]; i < g.xadj[u + 1]; ++i) {
      const NodeId v = g.adj[i];
      if (v == u || mate[v] != static_cast<NodeId>(-1)) continue;
      if (g.ewgt[i] > best_w || (g.ewgt[i] == best_w && v < best)) {
        best = v;
        best_w = g.ewgt[i];
      }
    }
    if (best != static_cast<NodeId>(-1)) {
      mate[u] = best;
      mate[best] = u;
    } else {
      mate[u] = u;
    }
  }
  // Assign coarse ids in fine-id order (deterministic).
  std::vector<NodeId> to_coarse(n, static_cast<NodeId>(-1));
  NodeId next = 0;
  for (NodeId u = 0; u < n; ++u) {
    if (to_coarse[u] != static_cast<NodeId>(-1)) continue;
    to_coarse[u] = next;
    if (mate[u] != u) to_coarse[mate[u]] = next;
    ++next;
  }
  return {std::move(to_coarse), next};
}

Csr contract(const Csr& g, const std::vector<NodeId>& to_coarse, std::size_t nc) {
  Csr c;
  c.vwgt.assign(nc, 0);
  for (NodeId u = 0; u < g.vertex_count(); ++u) c.vwgt[to_coarse[u]] += g.vwgt[u];

  // Sort-and-merge contraction: gathers each fine edge once as a packed
  // (cu, cv) key, then merges duplicates in one linear pass. Much friendlier
  // to memory than a hash map on multi-million-edge graphs.
  std::vector<std::pair<std::uint64_t, Weight>> edges;
  edges.reserve(g.adj.size() / 2);
  for (NodeId u = 0; u < g.vertex_count(); ++u) {
    const NodeId cu = to_coarse[u];
    for (std::uint64_t i = g.xadj[u]; i < g.xadj[u + 1]; ++i) {
      const NodeId cv = to_coarse[g.adj[i]];
      if (cu >= cv) continue;  // count each fine edge once; skip internal edges
      edges.emplace_back((static_cast<std::uint64_t>(cu) << 32) | cv, g.ewgt[i]);
    }
  }
  std::sort(edges.begin(), edges.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::size_t out = 0;
  for (std::size_t i = 0; i < edges.size();) {
    std::uint64_t key = edges[i].first;
    Weight w = 0;
    while (i < edges.size() && edges[i].first == key) w += edges[i++].second;
    edges[out++] = {key, w};
  }
  edges.resize(out);

  c.xadj.assign(nc + 1, 0);
  for (const auto& [k, w] : edges) {
    (void)w;
    c.xadj[(k >> 32) + 1]++;
    c.xadj[(k & 0xffffffffu) + 1]++;
  }
  for (std::size_t i = 1; i <= nc; ++i) c.xadj[i] += c.xadj[i - 1];
  c.adj.resize(edges.size() * 2);
  c.ewgt.resize(edges.size() * 2);
  std::vector<std::uint64_t> cursor(c.xadj.begin(), c.xadj.end() - 1);
  for (const auto& [k, w] : edges) {
    const NodeId cu = static_cast<NodeId>(k >> 32);
    const NodeId cv = static_cast<NodeId>(k & 0xffffffffu);
    c.adj[cursor[cu]] = cv;
    c.ewgt[cursor[cu]++] = w;
    c.adj[cursor[cv]] = cu;
    c.ewgt[cursor[cv]++] = w;
  }
  return c;
}

/// Greedy balanced initial partitioning of the coarsest graph.
std::vector<std::uint32_t> initial_partition(const Csr& g, std::uint32_t k, Weight cap) {
  const std::size_t n = g.vertex_count();
  std::vector<std::uint32_t> part(n, 0);
  std::vector<Weight> weight(k, 0);

  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](NodeId a, NodeId b) { return g.vwgt[a] > g.vwgt[b]; });

  std::vector<Weight> conn(k, 0);
  std::vector<bool> placed(n, false);
  for (NodeId u : order) {
    std::fill(conn.begin(), conn.end(), 0);
    for (std::uint64_t i = g.xadj[u]; i < g.xadj[u + 1]; ++i) {
      if (placed[g.adj[i]]) conn[part[g.adj[i]]] += g.ewgt[i];
    }
    std::uint32_t best = k;  // sentinel
    for (std::uint32_t p = 0; p < k; ++p) {
      if (weight[p] + g.vwgt[u] > cap) continue;
      if (best == k || conn[p] > conn[best] ||
          (conn[p] == conn[best] && weight[p] < weight[best])) {
        best = p;
      }
    }
    if (best == k) {
      // Nothing fits under the cap (huge coarse vertex): least-loaded part.
      best = 0;
      for (std::uint32_t p = 1; p < k; ++p) {
        if (weight[p] < weight[best]) best = p;
      }
    }
    part[u] = best;
    weight[best] += g.vwgt[u];
    placed[u] = true;
  }
  return part;
}

/// Boundary FM-style refinement sweeps. Moves a vertex to the part it is most
/// connected to when that strictly reduces the cut (or keeps the cut and
/// strictly improves balance) without violating the cap.
void refine(const Csr& g, std::uint32_t k, Weight cap, std::vector<std::uint32_t>& part,
            std::vector<Weight>& weight, int passes) {
  const std::size_t n = g.vertex_count();
  std::vector<Weight> conn(k, 0);
  for (int pass = 0; pass < passes; ++pass) {
    bool moved = false;
    for (NodeId u = 0; u < n; ++u) {
      const std::uint32_t from = part[u];
      std::fill(conn.begin(), conn.end(), 0);
      bool boundary = false;
      for (std::uint64_t i = g.xadj[u]; i < g.xadj[u + 1]; ++i) {
        conn[part[g.adj[i]]] += g.ewgt[i];
        boundary = boundary || part[g.adj[i]] != from;
      }
      if (!boundary) continue;
      std::uint32_t best = from;
      for (std::uint32_t p = 0; p < k; ++p) {
        if (p == from || weight[p] + g.vwgt[u] > cap) continue;
        const Weight gain = conn[p] - conn[from];
        const Weight best_gain = conn[best] - conn[from];
        if (gain > best_gain ||
            (gain == best_gain && best != from && weight[p] < weight[best])) {
          best = p;
        }
      }
      if (best == from) continue;
      const Weight gain = conn[best] - conn[from];
      const bool balance_gain = weight[best] + g.vwgt[u] < weight[from];
      if (gain > 0 || (gain == 0 && balance_gain)) {
        weight[from] -= g.vwgt[u];
        weight[best] += g.vwgt[u];
        part[u] = best;
        moved = true;
      }
    }
    if (!moved) break;
  }
}

}  // namespace

std::vector<std::uint32_t> hash_partition(std::size_t n, std::uint32_t k) {
  std::vector<std::uint32_t> part(n);
  for (std::size_t v = 0; v < n; ++v) part[v] = static_cast<std::uint32_t>(v % k);
  return part;
}

PartitionResult partition_graph(const Csr& g, const PartitionerConfig& cfg) {
  DSSMR_ASSERT(cfg.k >= 1);
  PartitionResult result;
  const std::size_t n = g.vertex_count();
  if (n == 0) {
    result.part_weights.assign(cfg.k, 0);
    return result;
  }
  if (cfg.k == 1) {
    result.part.assign(n, 0);
    result.part_weights = {g.total_vertex_weight()};
    return result;
  }

  const Weight total = g.total_vertex_weight();
  const Weight cap = std::max<Weight>(
      static_cast<Weight>(std::ceil(cfg.imbalance * static_cast<double>(total) /
                                    static_cast<double>(cfg.k))),
      1);

  // Coarsening.
  std::vector<Level> levels;
  levels.push_back({g, {}});
  const std::size_t target = std::max<std::size_t>(kCoarsestSize, cfg.k * 8);
  while (levels.back().graph.vertex_count() > target) {
    const Csr& cur = levels.back().graph;
    auto [to_coarse, nc] = match(cur);
    if (static_cast<double>(nc) > 0.95 * static_cast<double>(cur.vertex_count())) break;
    Csr coarse = contract(cur, to_coarse, nc);
    levels.back().to_coarse = std::move(to_coarse);
    levels.push_back({std::move(coarse), {}});
  }

  // Initial partitioning of the coarsest level.
  std::vector<std::uint32_t> part = initial_partition(levels.back().graph, cfg.k, cap);
  std::vector<Weight> weight(cfg.k, 0);
  for (NodeId u = 0; u < levels.back().graph.vertex_count(); ++u) {
    weight[part[u]] += levels.back().graph.vwgt[u];
  }
  refine(levels.back().graph, cfg.k, cap, part, weight, cfg.refine_passes);

  // Uncoarsening + refinement.
  for (std::size_t li = levels.size() - 1; li-- > 0;) {
    const Level& fine = levels[li];
    std::vector<std::uint32_t> fine_part(fine.graph.vertex_count());
    for (NodeId u = 0; u < fine.graph.vertex_count(); ++u) {
      fine_part[u] = part[fine.to_coarse[u]];
    }
    part = std::move(fine_part);
    std::fill(weight.begin(), weight.end(), 0);
    for (NodeId u = 0; u < fine.graph.vertex_count(); ++u) {
      weight[part[u]] += fine.graph.vwgt[u];
    }
    refine(fine.graph, cfg.k, cap, part, weight, cfg.refine_passes);
  }

  result.part = std::move(part);
  result.part_weights = std::move(weight);
  result.cut = edge_cut(g, result.part);
  return result;
}

}  // namespace dssmr::partition
