#include "workload/chirper_workload.h"

#include <algorithm>

#include "chirper/chirper.h"
#include "common/assert.h"

namespace dssmr::workload {

SocialGraph::SocialGraph(std::size_t users) : adj_(users) {}

SocialGraph SocialGraph::generate(const HolmeKimConfig& cfg, Rng& rng) {
  SocialGraph g{cfg.n};
  for (auto [u, v] : holme_kim(cfg, rng)) g.add_edge(VarId{u}, VarId{v});
  return g;
}

SocialGraph SocialGraph::generate_communities(const HolmeKimConfig& per_community,
                                              std::size_t communities,
                                              double cross_fraction, Rng& rng) {
  DSSMR_ASSERT(communities >= 1);
  DSSMR_ASSERT(cross_fraction >= 0.0 && cross_fraction < 1.0);
  const std::size_t n = per_community.n;
  SocialGraph g{n * communities};
  for (std::size_t c = 0; c < communities; ++c) {
    const auto base = static_cast<std::uint64_t>(c * n);
    for (auto [u, v] : holme_kim(per_community, rng)) {
      g.add_edge(VarId{base + u}, VarId{base + v});
    }
  }
  if (communities > 1 && cross_fraction > 0.0) {
    const double intra = static_cast<double>(g.edge_count());
    const auto cross_target =
        static_cast<std::size_t>(cross_fraction * intra / (1.0 - cross_fraction));
    std::size_t added = 0;
    while (added < cross_target) {
      const std::uint64_t u = rng.below(g.user_count());
      const std::uint64_t v = rng.below(g.user_count());
      if (u == v || u / n == v / n || g.connected(VarId{u}, VarId{v})) continue;
      g.add_edge(VarId{u}, VarId{v});
      ++added;
    }
  }
  return g;
}

const std::vector<VarId>& SocialGraph::neighbors(VarId u) const {
  DSSMR_ASSERT(u.value < adj_.size());
  return adj_[u.value];
}

bool SocialGraph::connected(VarId u, VarId v) const {
  const auto& n = neighbors(u);
  return std::find(n.begin(), n.end(), v) != n.end();
}

void SocialGraph::add_edge(VarId u, VarId v) {
  if (u == v || connected(u, v)) return;
  adj_[u.value].push_back(v);
  adj_[v.value].push_back(u);
  ++edge_count_;
}

void SocialGraph::remove_edge(VarId u, VarId v) {
  if (!connected(u, v)) return;
  auto drop = [](std::vector<VarId>& xs, VarId x) {
    xs.erase(std::remove(xs.begin(), xs.end(), x), xs.end());
  };
  drop(adj_[u.value], v);
  drop(adj_[v.value], u);
  --edge_count_;
}

partition::Csr SocialGraph::to_csr() const {
  partition::GraphBuilder b;
  if (!adj_.empty()) b.touch(static_cast<partition::NodeId>(adj_.size() - 1));
  for (std::size_t u = 0; u < adj_.size(); ++u) {
    for (VarId v : adj_[u]) {
      if (u < v.value) {
        b.add_edge(static_cast<partition::NodeId>(u),
                   static_cast<partition::NodeId>(v.value));
      }
    }
  }
  return b.build();
}

// ---------------------------------------------------------------------------

ChirperWorkload::ChirperWorkload(SocialGraph& graph, ChirperWorkloadConfig config,
                                 std::uint64_t seed)
    : graph_(graph), cfg_(config), rng_(seed), zipf_(graph.user_count(), config.zipf_theta) {
  const double total = cfg_.mix.timeline + cfg_.mix.post + cfg_.mix.follow + cfg_.mix.unfollow;
  DSSMR_ASSERT_MSG(total > 0.999 && total < 1.001, "command mix must sum to 1");
}

VarId ChirperWorkload::pick_user() {
  return VarId{static_cast<std::uint64_t>(zipf_.sample(rng_))};
}

smr::Command ChirperWorkload::next() {
  const double r = rng_.uniform();
  if (r < cfg_.mix.timeline) return chirper::make_get_timeline(pick_user());
  if (r < cfg_.mix.timeline + cfg_.mix.post) return next_post();
  if (r < cfg_.mix.timeline + cfg_.mix.post + cfg_.mix.follow) return next_follow();
  return next_unfollow();
}

smr::Command ChirperWorkload::next_post() {
  const VarId u = pick_user();
  return chirper::make_post(u, graph_.neighbors(u), "a 140-character chirp");
}

smr::Command ChirperWorkload::next_follow() {
  // Pick a not-yet-connected target, friend-of-friend biased to preserve the
  // clustered structure of the graph.
  for (int attempt = 0; attempt < 32; ++attempt) {
    const VarId u = pick_user();
    VarId v = u;
    const auto& nbrs = graph_.neighbors(u);
    if (!nbrs.empty() && rng_.chance(cfg_.follow_fof)) {
      const VarId w = nbrs[rng_.below(nbrs.size())];
      const auto& second = graph_.neighbors(w);
      if (!second.empty()) v = second[rng_.below(second.size())];
    } else {
      v = pick_user();
    }
    if (v == u || graph_.connected(u, v)) continue;
    graph_.add_edge(u, v);
    return chirper::make_follow(u, v);
  }
  // Dense corner: fall back to a timeline read rather than spinning.
  return chirper::make_get_timeline(pick_user());
}

smr::Command ChirperWorkload::next_unfollow() {
  for (int attempt = 0; attempt < 32; ++attempt) {
    const VarId u = pick_user();
    const auto& nbrs = graph_.neighbors(u);
    if (nbrs.empty()) continue;
    const VarId v = nbrs[rng_.below(nbrs.size())];
    graph_.remove_edge(u, v);
    return chirper::make_unfollow(u, v);
  }
  return chirper::make_get_timeline(pick_user());
}

}  // namespace dssmr::workload
