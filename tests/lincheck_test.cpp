// Linearizability: first validate the checker itself on hand-crafted
// histories, then property-check real DS-SMR executions (concurrent clients,
// moves, retries, fall-backs, crashes) against the sequential KV spec.
#include "lincheck/lincheck.h"

#include <gtest/gtest.h>

#include "harness/deployment.h"
#include "smr/kv.h"
#include "testing/dssmr_fixture.h"
#include "testing/history.h"

namespace dssmr::lincheck {
namespace {

using core::Strategy;
using harness::Deployment;
using smr::ReplyCode;
using namespace dssmr::testing;

Operation op(std::size_t client, Time invoke, Time response, smr::Command cmd,
             ReplyCode code, std::int64_t num = 0, std::string data = "") {
  Operation o;
  o.client = client;
  o.invoke = invoke;
  o.response = response;
  o.cmd = std::move(cmd);
  o.code = code;
  o.reply = net::make_msg<kv::KvReply>(num, std::move(data));
  return o;
}

KvSpec spec_with(std::initializer_list<std::pair<VarId, std::int64_t>> vars) {
  KvSpec s;
  for (auto [v, n] : vars) s.preload(v, n, "");
  return s;
}

// ---- checker unit tests ------------------------------------------------------

TEST(Checker, EmptyHistoryIsLinearizable) {
  EXPECT_TRUE(is_linearizable({}, spec_with({})));
}

TEST(Checker, SequentialHistoryAccepted) {
  auto s = spec_with({{VarId{1}, 0}});
  std::vector<Operation> h{
      op(0, 0, 10, kv_add(VarId{1}, 5), ReplyCode::kOk, 5),
      op(0, 20, 30, kv_get(VarId{1}), ReplyCode::kOk, 5),
  };
  EXPECT_TRUE(is_linearizable(h, s));
}

TEST(Checker, StaleReadAfterNewReadRejected) {
  // get=5 completes before get=0 starts: no legal order exists.
  auto s = spec_with({{VarId{1}, 0}});
  std::vector<Operation> h{
      op(0, 0, 10, kv_add(VarId{1}, 5), ReplyCode::kOk, 5),
      op(1, 20, 30, kv_get(VarId{1}), ReplyCode::kOk, 5),
      op(2, 40, 50, kv_get(VarId{1}), ReplyCode::kOk, 0),
  };
  EXPECT_FALSE(is_linearizable(h, s));
}

TEST(Checker, ConcurrentReadMayLinearizeBeforeWrite) {
  auto s = spec_with({{VarId{1}, 0}});
  std::vector<Operation> h{
      op(0, 0, 100, kv_add(VarId{1}, 5), ReplyCode::kOk, 5),
      op(1, 10, 20, kv_get(VarId{1}), ReplyCode::kOk, 0),  // overlaps the add
  };
  EXPECT_TRUE(is_linearizable(h, s));
}

TEST(Checker, NonOverlappingWriteThenStaleReadRejected) {
  auto s = spec_with({{VarId{1}, 0}});
  std::vector<Operation> h{
      op(0, 0, 10, kv_add(VarId{1}, 5), ReplyCode::kOk, 5),
      op(1, 20, 30, kv_get(VarId{1}), ReplyCode::kOk, 0),  // must see 5
  };
  EXPECT_FALSE(is_linearizable(h, s));
}

TEST(Checker, WrongReplyValueRejected) {
  auto s = spec_with({{VarId{1}, 7}});
  std::vector<Operation> h{op(0, 0, 10, kv_get(VarId{1}), ReplyCode::kOk, 3)};
  EXPECT_FALSE(is_linearizable(h, s));
}

TEST(Checker, CreateSemantics) {
  auto s = spec_with({});
  std::vector<Operation> h{
      op(0, 0, 10, make_create(VarId{9}), ReplyCode::kOk),
      op(1, 20, 30, make_create(VarId{9}), ReplyCode::kNok),
      op(0, 40, 50, kv_get(VarId{9}), ReplyCode::kOk, 0),
  };
  EXPECT_TRUE(is_linearizable(h, s));
}

TEST(Checker, DeleteMakesAccessNok) {
  auto s = spec_with({{VarId{2}, 4}});
  std::vector<Operation> h{
      op(0, 0, 10, make_delete(VarId{2}), ReplyCode::kOk),
      op(1, 20, 30, kv_get(VarId{2}), ReplyCode::kNok),
  };
  EXPECT_TRUE(is_linearizable(h, s));
}

TEST(Checker, NokOnExistingVarRejected) {
  auto s = spec_with({{VarId{2}, 4}});
  std::vector<Operation> h{op(0, 0, 10, kv_get(VarId{2}), ReplyCode::kNok)};
  EXPECT_FALSE(is_linearizable(h, s));
}

TEST(Checker, MultiVariableSumChecked) {
  auto s = spec_with({{VarId{1}, 3}, {VarId{2}, 4}});
  std::vector<Operation> h{op(0, 0, 10, kv_sum({VarId{1}, VarId{2}}, VarId{2}),
                             ReplyCode::kOk, 7)};
  EXPECT_TRUE(is_linearizable(h, s));
  std::vector<Operation> bad{op(0, 0, 10, kv_sum({VarId{1}, VarId{2}}, VarId{2}),
                               ReplyCode::kOk, 9)};
  EXPECT_FALSE(is_linearizable(bad, s));
}

// ---- property tests over real DS-SMR executions -------------------------------
// (the history recorder lives in testing/history.h, shared with fault_test)

class DssmrLinearizability : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DssmrLinearizability, RandomConcurrentHistoriesAreLinearizable) {
  constexpr std::size_t kVars = 5;
  auto cfg = small_config(2, Strategy::kDssmr, /*clients=*/4);
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  KvSpec spec;
  for (std::size_t i = 0; i < kVars; ++i) {
    d.preload_var(VarId{i}, d.partition_gid(i % 2), kv::KvValue{0, ""});
    spec.preload(VarId{i}, 0, "");
  }
  d.start();
  d.settle();
  auto history = record_history(d, /*ops_per_client=*/8, GetParam(), kVars);
  ASSERT_EQ(history.size(), 32u);
  EXPECT_TRUE(is_linearizable(history, spec)) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DssmrLinearizability,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

class SsmrLinearizability : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SsmrLinearizability, StaticStrategyHistoriesAreLinearizable) {
  constexpr std::size_t kVars = 5;
  auto cfg = small_config(2, Strategy::kStaticSsmr, /*clients=*/4);
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  KvSpec spec;
  for (std::size_t i = 0; i < kVars; ++i) {
    d.preload_var(VarId{i}, d.partition_gid(i % 2), kv::KvValue{0, ""});
    spec.preload(VarId{i}, 0, "");
  }
  d.start();
  d.settle();
  auto history = record_history(d, 8, GetParam(), kVars);
  EXPECT_TRUE(is_linearizable(history, spec)) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, SsmrLinearizability, ::testing::Values(11, 12, 13, 14, 15));

TEST(DssmrLinearizabilityFaults, HistoryWithFallbacksIsLinearizable) {
  // Fallbacks go to all three partitions; most touch one or two, so the
  // others answer "not involved" without executing. Histories must stay
  // linearizable, and the uninvolved path must actually have been taken.
  constexpr std::size_t kVars = 6;
  std::uint64_t uninvolved = 0;
  for (std::uint64_t seed : {77, 78, 79, 80, 81, 82}) {
    auto cfg = small_config(3, Strategy::kDssmr, 6);
    cfg.client_max_retries = 0;  // every stale access falls back to S-SMR
    cfg.seed = seed;
    Deployment d{cfg, kv::kv_app_factory(),
                 [] { return std::make_unique<core::DssmrPolicy>(); }};
    KvSpec spec;
    for (std::size_t i = 0; i < kVars; ++i) {
      d.preload_var(VarId{i}, d.partition_gid(i % 3), kv::KvValue{0, ""});
      spec.preload(VarId{i}, 0, "");
    }
    d.start();
    d.settle();
    auto history = record_history(d, 6, seed, kVars);
    EXPECT_TRUE(is_linearizable(history, spec)) << "seed " << seed;
    uninvolved += d.metrics().counter("server.fallback_uninvolved");
  }
  EXPECT_GT(uninvolved, 0u);
}

TEST(DssmrLinearizabilityFaults, HistoryAcrossPartitionLeaderCrashIsLinearizable) {
  constexpr std::size_t kVars = 4;
  auto cfg = small_config(2, Strategy::kDssmr, 3);
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  KvSpec spec;
  for (std::size_t i = 0; i < kVars; ++i) {
    d.preload_var(VarId{i}, d.partition_gid(i % 2), kv::KvValue{0, ""});
    spec.preload(VarId{i}, 0, "");
  }
  d.start();
  d.settle();
  // Crash partition 0's leader shortly into the run.
  d.engine().schedule(msec(3), [&] {
    for (std::size_t r = 0; r < cfg.replicas_per_partition; ++r) {
      if (d.server(0, r).is_leader()) {
        d.network().crash(d.server(0, r).pid());
        d.server(0, r).halt_node();
        return;
      }
    }
  });
  auto history = record_history(d, 8, 99, kVars);
  EXPECT_TRUE(is_linearizable(history, spec));
}

}  // namespace
}  // namespace dssmr::lincheck
