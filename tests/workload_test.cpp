#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "chirper/chirper.h"
#include "workload/chirper_workload.h"
#include "workload/holme_kim.h"
#include "workload/zipf.h"

namespace dssmr::workload {
namespace {

TEST(HolmeKim, EdgeCountMatchesModel) {
  Rng rng{1};
  const HolmeKimConfig cfg{.n = 1000, .m = 3, .p_triad = 0.8};
  auto edges = holme_kim(cfg, rng);
  // ~m edges per vertex beyond the seed; duplicates can push it slightly under.
  EXPECT_GT(edges.size(), 0.9 * 3 * 1000);
  EXPECT_LE(edges.size(), 3000u);
}

TEST(HolmeKim, NoSelfLoopsOrDuplicates) {
  Rng rng{2};
  auto edges = holme_kim({.n = 500, .m = 2, .p_triad = 0.5}, rng);
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  for (auto [u, v] : edges) {
    EXPECT_NE(u, v);
    auto key = std::minmax(u, v);
    EXPECT_TRUE(seen.insert({key.first, key.second}).second);
  }
}

TEST(HolmeKim, PowerLawishDegreeDistribution) {
  Rng rng{3};
  partition::Csr g = holme_kim_csr({.n = 5000, .m = 3, .p_triad = 0.8}, rng);
  std::uint64_t max_deg = 0;
  for (std::size_t u = 0; u < g.vertex_count(); ++u) {
    max_deg = std::max<std::uint64_t>(max_deg, g.xadj[u + 1] - g.xadj[u]);
  }
  const double avg = 2.0 * static_cast<double>(g.edge_count()) /
                     static_cast<double>(g.vertex_count());
  // Heavy tail: hubs far above the average degree.
  EXPECT_GT(static_cast<double>(max_deg), 10 * avg);
}

TEST(HolmeKim, TriadFormationRaisesClustering) {
  Rng rng1{4}, rng2{4};
  auto high = holme_kim_csr({.n = 3000, .m = 3, .p_triad = 0.95}, rng1);
  auto low = holme_kim_csr({.n = 3000, .m = 3, .p_triad = 0.0}, rng2);
  Rng s1{5}, s2{5};
  const double c_high = clustering_coefficient(high, 500, s1);
  const double c_low = clustering_coefficient(low, 500, s2);
  EXPECT_GT(c_high, 2 * c_low);
  EXPECT_GT(c_high, 0.3);  // the paper targets 0.6-1.0; sampled estimate is lower-bounded here
}

TEST(Zipf, UniformWhenThetaZero) {
  Rng rng{6};
  Zipf z{10, 0.0};
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 20000; ++i) counts[z.sample(rng)]++;
  for (const auto& [k, c] : counts) {
    (void)k;
    EXPECT_NEAR(c, 2000, 300);
  }
}

TEST(Zipf, SkewsTowardLowRanks) {
  Rng rng{7};
  Zipf z{1000, 0.99};
  std::size_t low = 0, total = 20000;
  for (std::size_t i = 0; i < total; ++i) {
    if (z.sample(rng) < 10) ++low;
  }
  // Top-10 of 1000 gets far more than its uniform 1% share.
  EXPECT_GT(low, total / 10);
}

TEST(Zipf, AliasMatchesCdfDistribution) {
  // sample() (alias method) and sample_cdf() (reference inversion) must draw
  // from the same distribution. Compare per-rank frequencies over a large
  // sample; a table-construction bug would skew individual ranks well past
  // this tolerance.
  const std::size_t n = 50;
  Zipf z{n, 0.99};
  Rng rng_alias{21}, rng_cdf{21};
  const int draws = 200000;
  std::vector<int> alias_counts(n, 0), cdf_counts(n, 0);
  for (int i = 0; i < draws; ++i) {
    alias_counts[z.sample(rng_alias)]++;
    cdf_counts[z.sample_cdf(rng_cdf)]++;
  }
  for (std::size_t k = 0; k < n; ++k) {
    const double pa = alias_counts[k] / static_cast<double>(draws);
    const double pc = cdf_counts[k] / static_cast<double>(draws);
    EXPECT_NEAR(pa, pc, 0.01) << "rank " << k;
  }
  // The head of the distribution must dominate in both samplers.
  EXPECT_GT(alias_counts[0], alias_counts[n - 1]);
  EXPECT_GT(cdf_counts[0], cdf_counts[n - 1]);
}

TEST(Zipf, AliasConsumesOneUniformPerDraw) {
  // Both samplers consume exactly one uniform() per call, so swapping one for
  // the other leaves every later draw of a shared Rng stream unchanged.
  Zipf z{100, 0.8};
  Rng a{33}, b{33};
  (void)z.sample(a);
  (void)z.sample_cdf(b);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SocialGraph, AddRemoveEdges) {
  SocialGraph g{4};
  g.add_edge(VarId{0}, VarId{1});
  EXPECT_TRUE(g.connected(VarId{0}, VarId{1}));
  EXPECT_TRUE(g.connected(VarId{1}, VarId{0}));
  EXPECT_EQ(g.edge_count(), 1u);
  g.add_edge(VarId{0}, VarId{1});  // duplicate ignored
  EXPECT_EQ(g.edge_count(), 1u);
  g.remove_edge(VarId{0}, VarId{1});
  EXPECT_FALSE(g.connected(VarId{0}, VarId{1}));
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(SocialGraph, CsrRoundTrip) {
  SocialGraph g{5};
  g.add_edge(VarId{0}, VarId{1});
  g.add_edge(VarId{1}, VarId{2});
  auto csr = g.to_csr();
  EXPECT_EQ(csr.vertex_count(), 5u);
  EXPECT_EQ(csr.edge_count(), 2u);
}

TEST(ChirperWorkload, RespectsMix) {
  Rng seed_rng{8};
  SocialGraph g = SocialGraph::generate({.n = 500, .m = 2, .p_triad = 0.5}, seed_rng);
  ChirperWorkloadConfig cfg;
  cfg.mix = {0.5, 0.5, 0.0, 0.0};
  ChirperWorkload wl{g, cfg, 9};
  int timeline = 0, post = 0;
  for (int i = 0; i < 2000; ++i) {
    auto cmd = wl.next();
    if (cmd.op == chirper::kGetTimeline) ++timeline;
    if (cmd.op == chirper::kPost) ++post;
  }
  EXPECT_NEAR(timeline, 1000, 120);
  EXPECT_NEAR(post, 1000, 120);
}

TEST(ChirperWorkload, PostWriteSetIsPosterPlusFollowers) {
  Rng seed_rng{10};
  SocialGraph g = SocialGraph::generate({.n = 200, .m = 2, .p_triad = 0.5}, seed_rng);
  ChirperWorkloadConfig cfg;
  cfg.mix = mixes::kPostOnly;
  ChirperWorkload wl{g, cfg, 11};
  auto cmd = wl.next();
  ASSERT_EQ(cmd.op, static_cast<std::uint32_t>(chirper::kPost));
  const VarId poster = cmd.write_set.at(0);
  EXPECT_EQ(cmd.write_set.size(), g.neighbors(poster).size() + 1);
}

TEST(ChirperWorkload, FollowUpdatesGroundTruth) {
  SocialGraph g{50};
  ChirperWorkloadConfig cfg;
  cfg.mix = {0.0, 0.0, 1.0, 0.0};
  cfg.follow_fof = 0.0;
  ChirperWorkload wl{g, cfg, 12};
  const std::size_t before = g.edge_count();
  auto cmd = wl.next();
  if (cmd.op == chirper::kFollow) {
    EXPECT_EQ(g.edge_count(), before + 1);
    EXPECT_TRUE(g.connected(cmd.write_set[0], cmd.write_set[1]));
  }
}

TEST(ChirperWorkload, UnfollowShrinksGraph) {
  Rng seed_rng{13};
  SocialGraph g = SocialGraph::generate({.n = 100, .m = 2, .p_triad = 0.5}, seed_rng);
  ChirperWorkloadConfig cfg;
  cfg.mix = {0.0, 0.0, 0.0, 1.0};
  ChirperWorkload wl{g, cfg, 14};
  const std::size_t before = g.edge_count();
  auto cmd = wl.next();
  if (cmd.op == chirper::kUnfollow) {
    EXPECT_EQ(g.edge_count(), before - 1);
  }
}

}  // namespace
}  // namespace dssmr::workload
