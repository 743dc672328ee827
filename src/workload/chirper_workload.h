// Chirper workload: ground-truth social graph + command mix generator.
//
// The driver plays the role of the paper's client population: it knows the
// social graph (clients know whom they follow), picks users, and builds the
// read/write sets of each command — post fan-out uses the poster's follower
// list, exactly the knowledge a Chirper client has about its own account.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "partition/graph.h"
#include "smr/command.h"
#include "workload/holme_kim.h"
#include "workload/zipf.h"

namespace dssmr::workload {

/// Undirected "mutual follow" social graph, kept in sync with the commands
/// the workload issues.
class SocialGraph {
 public:
  explicit SocialGraph(std::size_t users);

  /// Generates a Holme-Kim graph over `cfg.n` users.
  static SocialGraph generate(const HolmeKimConfig& cfg, Rng& rng);

  /// Generates a community-structured graph: `communities` independent
  /// Holme-Kim graphs of `per_community.n` users each, plus uniformly random
  /// inter-community edges so that the fraction of cross edges is
  /// `cross_fraction` (the paper's controlled "x% edge cut" workloads;
  /// cross_fraction 0 yields a perfectly partitionable state).
  static SocialGraph generate_communities(const HolmeKimConfig& per_community,
                                          std::size_t communities, double cross_fraction,
                                          Rng& rng);

  std::size_t user_count() const { return adj_.size(); }
  const std::vector<VarId>& neighbors(VarId u) const;
  bool connected(VarId u, VarId v) const;
  void add_edge(VarId u, VarId v);
  void remove_edge(VarId u, VarId v);
  std::size_t edge_count() const { return edge_count_; }

  partition::Csr to_csr() const;

 private:
  std::vector<std::vector<VarId>> adj_;
  std::size_t edge_count_ = 0;
};

/// Command mix, as fractions summing to 1.
struct ChirperMix {
  double timeline = 0;
  double post = 0;
  double follow = 0;
  double unfollow = 0;
};

namespace mixes {
/// Read-dominated mix (the paper cites TAO's read dominance).
inline constexpr ChirperMix kTimelineHeavy{0.85, 0.075, 0.0375, 0.0375};
inline constexpr ChirperMix kTimelineOnly{1.0, 0.0, 0.0, 0.0};
/// The paper's scalability experiments focus on posts (the multi-partition
/// command).
inline constexpr ChirperMix kPostOnly{0.0, 1.0, 0.0, 0.0};
inline constexpr ChirperMix kFollowChurn{0.0, 0.0, 0.5, 0.5};
}  // namespace mixes

struct ChirperWorkloadConfig {
  ChirperMix mix = mixes::kPostOnly;
  /// Zipf skew over users (0 = uniform).
  double zipf_theta = 0.0;
  /// Probability that a follow targets a friend-of-friend (vs. uniform).
  double follow_fof = 0.8;
};

class ChirperWorkload {
 public:
  ChirperWorkload(SocialGraph& graph, ChirperWorkloadConfig config, std::uint64_t seed);

  /// Builds the next command. Follow/unfollow update the ground truth graph
  /// immediately (the issuing client knows its own edges).
  smr::Command next();

 private:
  VarId pick_user();
  smr::Command next_post();
  smr::Command next_follow();
  smr::Command next_unfollow();

  SocialGraph& graph_;
  ChirperWorkloadConfig cfg_;
  Rng rng_;
  Zipf zipf_;
};

}  // namespace dssmr::workload
