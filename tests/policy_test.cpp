// Unit tests of the oracle-side placement machinery: the dynamic Mapping and
// the DS-SMR placement and destination rules.
#include <gtest/gtest.h>

#include <set>

#include "core/mapping.h"

namespace dssmr::core {
namespace {

std::vector<GroupId> three_parts() { return {GroupId{0}, GroupId{1}, GroupId{2}}; }

TEST(Mapping, PlaceLocateErase) {
  Mapping m{three_parts()};
  EXPECT_EQ(m.locate(VarId{1}), kNoGroup);
  m.place(VarId{1}, GroupId{2});
  EXPECT_EQ(m.locate(VarId{1}), GroupId{2});
  EXPECT_TRUE(m.contains(VarId{1}));
  m.erase(VarId{1});
  EXPECT_FALSE(m.contains(VarId{1}));
  EXPECT_EQ(m.var_count(), 0u);
}

TEST(Mapping, LoadTracking) {
  Mapping m{three_parts()};
  m.place(VarId{1}, GroupId{0});
  m.place(VarId{2}, GroupId{0});
  m.place(VarId{3}, GroupId{1});
  EXPECT_EQ(m.load(GroupId{0}), 2u);
  EXPECT_EQ(m.load(GroupId{1}), 1u);
  EXPECT_EQ(m.load(GroupId{2}), 0u);
  EXPECT_EQ(m.least_loaded(), GroupId{2});
  m.place(VarId{1}, GroupId{2});  // re-place updates both counts
  EXPECT_EQ(m.load(GroupId{0}), 1u);
  EXPECT_EQ(m.load(GroupId{2}), 1u);
}

TEST(DssmrPolicy, PlaceNewBalances) {
  Mapping m{three_parts()};
  DssmrPolicy policy;
  for (std::uint64_t i = 0; i < 9; ++i) {
    const GroupId p = policy.place_new(m);
    m.place(VarId{i}, p);
  }
  for (GroupId g : three_parts()) EXPECT_EQ(m.load(g), 3u);
}

TEST(DssmrPolicy, MostHeldPicksDominantPartition) {
  Mapping m{three_parts()};
  m.place(VarId{1}, GroupId{1});
  m.place(VarId{2}, GroupId{1});
  m.place(VarId{3}, GroupId{2});
  DssmrPolicy policy{DssmrPolicy::DestRule::kMostHeld};
  EXPECT_EQ(policy.choose_destination({VarId{1}, VarId{2}, VarId{3}}, m), GroupId{1});
}

TEST(DssmrPolicy, MostHeldTiesAreSpread) {
  // With pure ties the hashed tie-break must not always pick partition 0.
  Mapping m{three_parts()};
  DssmrPolicy policy{DssmrPolicy::DestRule::kMostHeld};
  std::set<std::uint32_t> chosen;
  for (std::uint64_t i = 0; i < 40; i += 2) {
    m.place(VarId{i}, GroupId{0});
    m.place(VarId{i + 1}, GroupId{1});
    chosen.insert(policy.choose_destination({VarId{i}, VarId{i + 1}}, m).value);
  }
  EXPECT_GT(chosen.size(), 1u);
}

TEST(DssmrPolicy, MostHeldTieGoesToTheLighterPartition) {
  // Partitions 0 and 1 each hold one variable of every command; the heavier
  // of the two (more mapped variables) must never be chosen, whatever the
  // variable set hashes to.
  for (std::uint32_t heavy : {0u, 1u}) {
    Mapping m{three_parts()};
    for (std::uint64_t i = 0; i < 5; ++i) m.place(VarId{1000 + i}, GroupId{heavy});
    DssmrPolicy policy{DssmrPolicy::DestRule::kMostHeld};
    for (std::uint64_t i = 0; i < 40; i += 2) {
      m.place(VarId{i}, GroupId{0});
      m.place(VarId{i + 1}, GroupId{1});
      EXPECT_EQ(policy.choose_destination({VarId{i}, VarId{i + 1}}, m), GroupId{1 - heavy});
    }
    // Holding more of the command still beats being lighter.
    EXPECT_EQ(policy.choose_destination({VarId{0}, VarId{1}, VarId{1000}}, m), GroupId{heavy});
  }
}

TEST(DssmrPolicy, MostHeldPassesOverACrowdedPartition) {
  // P0 holds 10 of 15 variables, more than a fifth (and one variable) above
  // the mean of 5: it is no destination while an involved partition is not
  // crowded, even where it holds the most of the command.
  Mapping m{three_parts()};
  for (std::uint64_t i = 0; i < 10; ++i) m.place(VarId{i}, GroupId{0});
  for (std::uint64_t i = 10; i < 12; ++i) m.place(VarId{i}, GroupId{1});
  for (std::uint64_t i = 20; i < 23; ++i) m.place(VarId{i}, GroupId{2});
  DssmrPolicy policy{DssmrPolicy::DestRule::kMostHeld};
  EXPECT_EQ(policy.choose_destination({VarId{0}, VarId{1}, VarId{10}}, m), GroupId{1});
  // Among the others, most held still wins over lighter.
  EXPECT_EQ(policy.choose_destination({VarId{0}, VarId{10}, VarId{20}, VarId{21}}, m),
            GroupId{2});
  // With every involved partition crowded, most held applies as before.
  for (std::uint64_t i = 12; i < 20; ++i) m.place(VarId{i}, GroupId{1});
  for (std::uint64_t i = 20; i < 23; ++i) m.erase(VarId{i});
  EXPECT_EQ(policy.choose_destination({VarId{0}, VarId{1}, VarId{10}}, m), GroupId{0});
}

TEST(DssmrPolicy, DestinationIsDeterministic) {
  Mapping m{three_parts()};
  m.place(VarId{1}, GroupId{0});
  m.place(VarId{2}, GroupId{1});
  // A three-way tie over unequal loads (4, 1, 2): the load tie-break must be
  // as repeatable.
  Mapping skewed{three_parts()};
  skewed.place(VarId{1}, GroupId{0});
  skewed.place(VarId{2}, GroupId{1});
  skewed.place(VarId{3}, GroupId{2});
  for (std::uint64_t i = 10; i < 13; ++i) skewed.place(VarId{i}, GroupId{0});
  skewed.place(VarId{13}, GroupId{2});
  for (auto rule : {DssmrPolicy::DestRule::kMostHeld, DssmrPolicy::DestRule::kRandomInvolved,
                    DssmrPolicy::DestRule::kLeastLoaded}) {
    DssmrPolicy a{rule}, b{rule};
    EXPECT_EQ(a.choose_destination({VarId{1}, VarId{2}}, m),
              b.choose_destination({VarId{1}, VarId{2}}, m));
    EXPECT_EQ(a.choose_destination({VarId{1}, VarId{2}, VarId{3}}, skewed),
              b.choose_destination({VarId{1}, VarId{2}, VarId{3}}, skewed));
  }
}

TEST(DssmrPolicy, RandomInvolvedStaysAmongInvolved) {
  Mapping m{three_parts()};
  m.place(VarId{1}, GroupId{0});
  m.place(VarId{2}, GroupId{2});
  DssmrPolicy policy{DssmrPolicy::DestRule::kRandomInvolved};
  const GroupId d = policy.choose_destination({VarId{1}, VarId{2}}, m);
  EXPECT_TRUE(d == GroupId{0} || d == GroupId{2});
}

TEST(DssmrPolicy, LeastLoadedPrefersEmptierPartition) {
  Mapping m{three_parts()};
  for (std::uint64_t i = 0; i < 5; ++i) m.place(VarId{i}, GroupId{0});
  m.place(VarId{10}, GroupId{1});
  DssmrPolicy policy{DssmrPolicy::DestRule::kLeastLoaded};
  EXPECT_EQ(policy.choose_destination({VarId{0}, VarId{10}}, m), GroupId{1});
}

}  // namespace
}  // namespace dssmr::core
