// Whole-system consistency stress tests: random concurrent workloads across
// a grid of (strategy, partitions, seed), followed by a quiescent audit of
// the global invariants (single ownership, replica agreement, oracle/owner
// agreement) and spot-checks of the final application state.
#include <gtest/gtest.h>

#include <tuple>

#include "chirper/chirper.h"
#include "harness/deployment.h"
#include "harness/experiment.h"
#include "smr/kv.h"
#include "testing/dssmr_fixture.h"
#include "workload/chirper_workload.h"

namespace dssmr {
namespace {

using core::Strategy;
using harness::Deployment;
using smr::ReplyCode;
using namespace dssmr::testing;

/// Runs a random concurrent KV workload: each client loops through `ops`
/// commands over `num_vars` variables, all in flight together.
void drive_random_kv(Deployment& d, std::size_t ops, std::size_t num_vars,
                     std::uint64_t seed) {
  std::vector<std::size_t> remaining(d.client_count(), ops);
  Rng rng{seed};
  std::function<void(std::size_t)> kick = [&](std::size_t ci) {
    if (remaining[ci]-- == 0) return;
    smr::Command cmd;
    const auto pick = [&] { return VarId{rng.below(num_vars)}; };
    switch (rng.below(4)) {
      case 0:
        cmd = kv_get(pick());
        break;
      case 1:
        cmd = kv_add(pick(), 1);
        break;
      case 2: {
        VarId a = pick(), b = pick(), c = pick();
        std::vector<VarId> srcs{a};
        if (b != a) srcs.push_back(b);
        if (c != a && c != b) srcs.push_back(c);
        cmd = kv_sum(srcs, a);
        break;
      }
      default:
        cmd = kv_set({pick()}, "z");
        break;
    }
    d.client(ci).issue(std::move(cmd), [&kick, ci](ReplyCode, const net::MessagePtr&) {
      kick(ci);
    });
  };
  for (std::size_t ci = 0; ci < d.client_count(); ++ci) kick(ci);

  const Time deadline = d.engine().now() + sec(120);
  while (d.engine().now() < deadline) {
    d.engine().run_for(msec(50));
    bool done = true;
    for (std::size_t ci = 0; ci < d.client_count(); ++ci) {
      done = done && !d.client(ci).busy();
    }
    if (done) break;
  }
  d.engine().run_for(msec(500));  // quiesce followers and stragglers
}

using GridParam = std::tuple<Strategy, std::size_t, std::uint64_t>;

class ConsistencyGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(ConsistencyGrid, RandomWorkloadLeavesConsistentState) {
  const auto [strategy, partitions, seed] = GetParam();
  constexpr std::size_t kVars = 12;

  auto cfg = small_config(partitions, strategy, /*clients=*/6);
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  for (std::size_t i = 0; i < kVars; ++i) {
    d.preload_var(VarId{i}, d.partition_gid(i % partitions), kv::KvValue{0, ""});
  }
  d.start();
  d.settle();

  drive_random_kv(d, /*ops=*/15, kVars, seed);

  const auto violations = d.audit_consistency();
  for (const auto& v : violations) ADD_FAILURE() << v;

  // All preloaded variables are still reachable with a sane value.
  for (std::size_t i = 0; i < kVars; ++i) {
    net::MessagePtr reply;
    ASSERT_EQ(run_op(d, 0, kv_get(VarId{i}), &reply), ReplyCode::kOk) << "var " << i;
    EXPECT_GE(kv_num(reply), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConsistencyGrid,
    ::testing::Combine(::testing::Values(Strategy::kDssmr, Strategy::kStaticSsmr),
                       ::testing::Values(std::size_t{2}, std::size_t{3}),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2})),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      // NOTE: no structured bindings here — square brackets do not protect
      // commas from the INSTANTIATE macro's preprocessor.
      std::string name = core::to_string(std::get<0>(info.param));
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name + "_" + std::to_string(std::get<1>(info.param)) + "p_seed" +
             std::to_string(std::get<2>(info.param));
    });

TEST(ConsistencyFaults, AuditHoldsAfterLeaderCrashAndChurn) {
  constexpr std::size_t kVars = 8;
  auto cfg = small_config(2, Strategy::kDssmr, 4);
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  for (std::size_t i = 0; i < kVars; ++i) {
    d.preload_var(VarId{i}, d.partition_gid(i % 2), kv::KvValue{0, ""});
  }
  d.start();
  d.settle();

  d.engine().schedule(msec(5), [&] {
    for (std::size_t r = 0; r < 3; ++r) {
      if (d.server(1, r).is_leader()) {
        d.network().crash(d.server(1, r).pid());
        d.server(1, r).halt_node();
        return;
      }
    }
  });
  drive_random_kv(d, 12, kVars, 33);
  d.engine().run_for(sec(2));

  // Exclude the crashed replica (the audit does this internally).
  const auto violations = d.audit_consistency();
  for (const auto& v : violations) ADD_FAILURE() << v;
}

TEST(ConsistencyChirper, PostHeavyWorkloadKeepsOwnershipPartitioned) {
  auto cfg = small_config(3, Strategy::kDssmr, 6);
  Rng rng{5};
  auto graph = workload::SocialGraph::generate({.n = 60, .m = 2, .p_triad = 0.7}, rng);
  Deployment d{cfg, chirper::chirper_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  for (std::size_t u = 0; u < graph.user_count(); ++u) {
    chirper::UserValue user;
    user.followers = graph.neighbors(VarId{u});
    user.following = user.followers;
    d.preload_var(VarId{u}, d.partition_gid(u % 3), user);
  }
  d.start();
  d.settle();

  workload::ChirperWorkloadConfig wcfg;
  wcfg.mix = workload::mixes::kTimelineHeavy;
  workload::ChirperWorkload wl{graph, wcfg, 9};
  harness::ClosedLoopDriver driver{d, [&wl] { return wl.next(); }};
  driver.run(/*warmup=*/0, /*measure=*/sec(2));
  d.engine().run_for(sec(1));

  const auto violations = d.audit_consistency();
  for (const auto& v : violations) ADD_FAILURE() << v;
  // Every user still accounted for.
  std::size_t owned = 0;
  for (std::size_t p = 0; p < 3; ++p) owned += d.server(p, 0).store().owned_count();
  EXPECT_EQ(owned, graph.user_count());
}

}  // namespace
}  // namespace dssmr
