// Partition-server behaviour under tricky interleavings: head-of-line
// blocking, S-SMR variable exchange details, move edge cases, exactly-once
// replies.
#include <gtest/gtest.h>

#include "harness/deployment.h"
#include "smr/kv.h"
#include "testing/dssmr_fixture.h"

namespace dssmr::core {
namespace {

using harness::Deployment;
using smr::ReplyCode;
using namespace dssmr::testing;

std::unique_ptr<Deployment> kv_deployment(
    std::size_t parts, Strategy strategy, std::size_t vars = 8, std::size_t clients = 4,
    int max_retries = harness::DeploymentConfig{}.client_max_retries) {
  auto cfg = small_config(parts, strategy, clients);
  cfg.client_max_retries = max_retries;
  auto d = std::make_unique<Deployment>(
      cfg, kv::kv_app_factory(),
      [] { return std::make_unique<DssmrPolicy>(DssmrPolicy::DestRule::kMostHeld); });
  for (std::size_t i = 0; i < vars; ++i) {
    d->preload_var(VarId{i}, d->partition_gid(i % parts),
                   kv::KvValue{static_cast<std::int64_t>(i), ""});
  }
  d->start();
  d->settle();
  return d;
}

TEST(ServerExec, MultiPartitionCommandBlocksLaterCommands) {
  // Under S-SMR, a cross-partition command delivered first must complete
  // before a later single-partition command on the same partition executes.
  auto d = kv_deployment(2, Strategy::kStaticSsmr);
  std::vector<int> completion_order;
  d->client(0).issue(kv_sum({VarId{0}, VarId{1}}, VarId{0}),
                     [&](ReplyCode c, const net::MessagePtr&) {
                       ASSERT_EQ(c, ReplyCode::kOk);
                       completion_order.push_back(1);
                     });
  // Give the first command a head start into the log, then a local read.
  d->engine().run_for(msec(1));
  d->client(1).issue(kv_get(VarId{2}), [&](ReplyCode c, const net::MessagePtr&) {
    ASSERT_EQ(c, ReplyCode::kOk);
    completion_order.push_back(2);
  });
  d->engine().run_for(sec(2));
  ASSERT_EQ(completion_order.size(), 2u);
  EXPECT_EQ(completion_order[0], 1);
  EXPECT_EQ(completion_order[1], 2);
}

TEST(ServerExec, CrossPartitionReadGetsRemoteValue) {
  auto d = kv_deployment(4, Strategy::kStaticSsmr);
  // Sum vars on partitions 1,2,3 into var on partition 0: partition 0 needs
  // three remote values shipped in.
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 0, kv_sum({VarId{1}, VarId{2}, VarId{3}}, VarId{0}), &reply),
            ReplyCode::kOk);
  EXPECT_EQ(kv_num(reply), 1 + 2 + 3);
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{0}), &reply), ReplyCode::kOk);
  EXPECT_EQ(kv_num(reply), 6);
}

TEST(ServerExec, CrossPartitionWriteAppliesAtOwnerOnly) {
  auto d = kv_deployment(2, Strategy::kStaticSsmr);
  // kSet writes both vars; each partition applies only its own.
  EXPECT_EQ(run_op(*d, 0, kv_set({VarId{0}, VarId{1}}, "w")), ReplyCode::kOk);
  EXPECT_TRUE(d->server(0, 0).owns(VarId{0}));
  EXPECT_FALSE(d->server(0, 0).owns(VarId{1}));
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 1, kv_get(VarId{1}), &reply), ReplyCode::kOk);
  EXPECT_EQ(kv_data(reply), "w");
}

TEST(ServerMove, MoveToPartitionAlreadyHoldingSomeVars) {
  auto d = kv_deployment(2, Strategy::kDssmr);
  // {v0,v2} @P0, {v1} @P1 -> most-held dest is P0; P0 is both source-holder
  // and destination.
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 0, kv_sum({VarId{0}, VarId{2}, VarId{1}}, VarId{0}), &reply),
            ReplyCode::kOk);
  EXPECT_EQ(kv_num(reply), 0 + 2 + 1);
  EXPECT_TRUE(d->server(0, 0).owns(VarId{1}));
  EXPECT_FALSE(d->server(1, 0).owns(VarId{1}));
  // Store value travelled with the move.
  EXPECT_EQ(run_op(*d, 1, kv_get(VarId{1}), &reply), ReplyCode::kOk);
  EXPECT_EQ(kv_num(reply), 1);
}

TEST(ServerMove, ConcurrentOverlappingCollocationsStayConsistent) {
  auto d = kv_deployment(2, Strategy::kDssmr, 8, 4);
  // Two clients concurrently collocate overlapping variable sets.
  int done = 0;
  d->client(0).issue(kv_sum({VarId{0}, VarId{1}}, VarId{0}),
                     [&](ReplyCode c, const net::MessagePtr&) {
                       EXPECT_EQ(c, ReplyCode::kOk);
                       ++done;
                     });
  d->client(1).issue(kv_sum({VarId{1}, VarId{2}}, VarId{2}),
                     [&](ReplyCode c, const net::MessagePtr&) {
                       EXPECT_EQ(c, ReplyCode::kOk);
                       ++done;
                     });
  const Time deadline = d->engine().now() + sec(20);
  while (done < 2 && d->engine().now() < deadline) d->engine().run_for(msec(10));
  ASSERT_EQ(done, 2);
  d->engine().run_for(sec(1));
  const auto violations = d->audit_consistency();
  for (const auto& v : violations) ADD_FAILURE() << v;
}

TEST(ServerMove, MoveIsExactlyOnceUnderRetransmission) {
  // Aggressive client timeouts force duplicated move submissions; the store
  // must neither lose nor duplicate the variable.
  auto cfg = small_config(2, Strategy::kDssmr, 2);
  cfg.client_timeout = msec(20);
  cfg.net.intra_rack_latency = msec(8);
  cfg.net.inter_rack_latency = msec(15);
  auto d = std::make_unique<Deployment>(
      cfg, kv::kv_app_factory(),
      [] { return std::make_unique<DssmrPolicy>(DssmrPolicy::DestRule::kMostHeld); });
  for (std::size_t i = 0; i < 4; ++i) {
    d->preload_var(VarId{i}, d->partition_gid(i % 2),
                   kv::KvValue{static_cast<std::int64_t>(i), ""});
  }
  d->start();
  d->settle();
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 0, kv_sum({VarId{0}, VarId{2}, VarId{1}}, VarId{1}), &reply),
            ReplyCode::kOk);
  EXPECT_EQ(kv_num(reply), 3);
  d->engine().run_for(sec(1));
  const auto violations = d->audit_consistency();
  for (const auto& v : violations) ADD_FAILURE() << v;
}

TEST(ServerExec, ExecutedCountAndBusyTimeAdvance) {
  auto d = kv_deployment(2, Strategy::kDssmr);
  const auto before = d->server(0, 0).executed_count();
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{0})), ReplyCode::kOk);
  d->engine().run_for(msec(100));
  EXPECT_GT(d->server(0, 0).executed_count(), before);
  EXPECT_GT(d->server(0, 0).busy_time(), 0);
}

TEST(ServerExec, StoreReflectsPreloadedBytes) {
  auto d = kv_deployment(2, Strategy::kDssmr);
  EXPECT_EQ(d->server(0, 0).owned_count(), 4u);
  EXPECT_GT(d->server(0, 0).store().total_bytes(), 0u);
}

TEST(ServerFallback, FallbackExecutesDespiteScatteredVars) {
  // With retries disabled, a stale-cache access goes straight to the S-SMR
  // fall-back across all partitions and still returns the right value.
  auto cfg = small_config(2, Strategy::kDssmr, 4);
  cfg.client_max_retries = -1;
  auto d = std::make_unique<Deployment>(
      cfg, kv::kv_app_factory(),
      [] { return std::make_unique<DssmrPolicy>(DssmrPolicy::DestRule::kMostHeld); });
  for (std::size_t i = 0; i < 4; ++i) {
    d->preload_var(VarId{i}, d->partition_gid(i % 2),
                   kv::KvValue{static_cast<std::int64_t>(10 * i), ""});
  }
  d->start();
  d->settle();
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{1})), ReplyCode::kOk);  // cache v1@P1
  EXPECT_EQ(run_op(*d, 1, kv_sum({VarId{0}, VarId{2}, VarId{1}}, VarId{3})), ReplyCode::kOk);
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{1}), &reply), ReplyCode::kOk);
  EXPECT_EQ(kv_num(reply), 10);
  EXPECT_EQ(d->metrics().counter("client.fallbacks"), 1u);
}

// Executed tasks and CPU-busy time summed over every replica of partition p.
std::pair<std::uint64_t, Duration> exec_totals(Deployment& d, std::size_t p) {
  std::pair<std::uint64_t, Duration> t{0, 0};
  for (std::size_t r = 0; r < d.config().replicas_per_partition; ++r) {
    t.first += d.server(p, r).executed_count();
    t.second += d.server(p, r).busy_time();
  }
  return t;
}

// vi = i on partition i % parts; the first stale answer falls back to S-SMR.
std::unique_ptr<Deployment> fallback_deployment(std::size_t parts) {
  return kv_deployment(parts, Strategy::kDssmr, 3 * parts, 4, /*max_retries=*/-1);
}

TEST(ServerFallback, OnlyPartitionsHoldingAVariableExecuteIt) {
  // v1 starts on P1; a collocation moves it to P0 behind client 0's cached
  // location, so client 0's read of v1 falls back to all three partitions.
  // Only P0 holds v1: P1 and P2 must answer at once and never queue it.
  auto d = fallback_deployment(3);
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{1})), ReplyCode::kOk);  // cache v1@P1
  EXPECT_EQ(run_op(*d, 1, kv_sum({VarId{0}, VarId{3}, VarId{1}}, VarId{0})), ReplyCode::kOk);
  d->engine().run_for(msec(100));  // every replica has applied the move
  ASSERT_TRUE(d->server(0, 0).owns(VarId{1}));
  const auto p0 = exec_totals(*d, 0);
  const auto p1 = exec_totals(*d, 1);
  const auto p2 = exec_totals(*d, 2);

  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{1}), &reply), ReplyCode::kOk);
  EXPECT_EQ(kv_num(reply), 1);
  d->engine().run_for(msec(100));
  EXPECT_EQ(d->metrics().counter("client.fallbacks"), 1u);
  EXPECT_EQ(d->metrics().counter("server.fallback_uninvolved"), 2u);
  EXPECT_EQ(exec_totals(*d, 1), p1);
  EXPECT_EQ(exec_totals(*d, 2), p2);
  EXPECT_EQ(exec_totals(*d, 0).first, p0.first + d->config().replicas_per_partition);
  EXPECT_GT(exec_totals(*d, 0).second, p0.second);
}

TEST(ServerFallback, PhantomOnlyFallbackTerminatesWithNok) {
  // The oracle maps v50 to P0 but no partition holds it: every single-partition
  // attempt is stale, and the fallback finds no partition involved. The
  // client must still finish — with kNok, as for an unknown variable.
  auto d = fallback_deployment(2);
  for (std::size_t r = 0; r < d->config().oracle_replicas; ++r) {
    d->oracle(r).preload(VarId{50}, d->partition_gid(0));
  }
  bool done = false;
  ReplyCode rc = ReplyCode::kOk;
  d->client(0).issue(kv_get(VarId{50}), [&](ReplyCode c, const net::MessagePtr&) {
    done = true;
    rc = c;
  });
  const Time deadline = d->engine().now() + sec(10);
  while (!done && d->engine().now() < deadline) d->engine().run_for(msec(5));
  ASSERT_TRUE(done) << "phantom-only fallback wedged";
  EXPECT_EQ(rc, ReplyCode::kNok);
  EXPECT_EQ(d->metrics().counter("client.fallbacks"), 1u);
  EXPECT_EQ(d->metrics().counter("server.fallback_uninvolved"), 2u);
  EXPECT_EQ(d->metrics().counter("server.multi_partition_commands"), 0u);
}

TEST(ServerFallback, RetransmissionNeverExecutesWhereFirstDeliveryWasUninvolved) {
  // An all-partition add to v1 (on P1) is delivered, then a move brings v1 to
  // P2, then the same command is delivered again. P2 was uninvolved at the
  // first delivery and must not apply the add now that it holds v1.
  auto d = fallback_deployment(3);
  smr::Command add = kv_add(VarId{1}, 5);
  add.id = d->client(0).fresh_id();
  const auto payload = net::make_msg<smr::CommandMsg>(add);
  const std::vector<GroupId> all = d->partition_gids();
  d->client(0).amcast(all, payload);
  d->engine().run_for(msec(100));
  EXPECT_EQ(d->metrics().counter("server.fallback_uninvolved"), 2u);

  EXPECT_EQ(run_op(*d, 1, kv_sum({VarId{2}, VarId{5}, VarId{1}}, VarId{2})), ReplyCode::kOk);
  d->engine().run_for(msec(100));
  ASSERT_TRUE(d->server(2, 0).owns(VarId{1}));
  const auto p2 = exec_totals(*d, 2);

  d->client(0).amcast(all, payload);  // retransmission, fresh multicast id
  d->engine().run_for(msec(100));
  EXPECT_EQ(exec_totals(*d, 2), p2);
  EXPECT_EQ(d->metrics().counter("server.fallback_uninvolved"), 2u);
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 1, kv_get(VarId{1}), &reply), ReplyCode::kOk);
  EXPECT_EQ(kv_num(reply), 1 + 5);
  EXPECT_EQ(run_op(*d, 1, kv_get(VarId{2}), &reply), ReplyCode::kOk);
  EXPECT_EQ(kv_num(reply), 2 + 5 + 6);
}

}  // namespace
}  // namespace dssmr::core
