// Client-proxy behaviour details: cache lifecycle, hint forwarding gating,
// strategy labels, timeout-driven retransmission.
#include <gtest/gtest.h>

#include "harness/deployment.h"
#include "smr/command.h"
#include "smr/kv.h"
#include "testing/cluster.h"
#include "testing/dssmr_fixture.h"

namespace dssmr::core {
namespace {

using harness::Deployment;
using smr::ReplyCode;
using namespace dssmr::testing;

std::unique_ptr<Deployment> deployment(harness::DeploymentConfig cfg, std::size_t vars = 6) {
  auto d = std::make_unique<Deployment>(
      cfg, kv::kv_app_factory(),
      [] { return std::make_unique<DssmrPolicy>(DssmrPolicy::DestRule::kMostHeld); });
  for (std::size_t i = 0; i < vars; ++i) {
    d->preload_var(VarId{i}, d->partition_gid(i % cfg.partitions),
                   kv::KvValue{static_cast<std::int64_t>(i), ""});
  }
  d->start();
  d->settle();
  return d;
}

TEST(ClientProxy, StrategyNames) {
  EXPECT_STREQ(to_string(Strategy::kStaticSsmr), "S-SMR");
  EXPECT_STREQ(to_string(Strategy::kDssmr), "DS-SMR");
  EXPECT_STREQ(to_string(Strategy::kDynaStar), "DynaStar");
}

TEST(ClientProxy, CacheStartsEmptyAndFillsFromProphecies) {
  auto d = deployment(small_config(2, Strategy::kDssmr));
  EXPECT_EQ(d->client(0).cached_location(VarId{0}), std::nullopt);
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{0})), ReplyCode::kOk);
  EXPECT_EQ(d->client(0).cached_location(VarId{0}), d->partition_gid(0));
  // Another client's cache is unaffected.
  EXPECT_EQ(d->client(1).cached_location(VarId{0}), std::nullopt);
}

TEST(ClientProxy, MoveUpdatesCacheForAllMovedVars) {
  auto d = deployment(small_config(2, Strategy::kDssmr));
  EXPECT_EQ(run_op(*d, 0, kv_sum({VarId{0}, VarId{2}, VarId{1}}, VarId{1})), ReplyCode::kOk);
  // All three collocated on partition 0 (most-held); the mover's cache knows.
  for (VarId v : {VarId{0}, VarId{1}, VarId{2}}) {
    EXPECT_EQ(d->client(0).cached_location(v), d->partition_gid(0));
  }
}

TEST(ClientProxy, NokDoesNotPoisonCache) {
  auto d = deployment(small_config(2, Strategy::kDssmr));
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{77})), ReplyCode::kNok);
  EXPECT_EQ(d->client(0).cached_location(VarId{77}), std::nullopt);
}

TEST(ClientProxy, HintsOnlySentWhenEnabled) {
  auto cfg = small_config(2, Strategy::kDssmr);
  cfg.client_hints = false;
  auto d = deployment(cfg);
  smr::Command cmd = kv_get(VarId{0});
  cmd.hint_edges = {{VarId{0}, VarId{1}}};
  EXPECT_EQ(run_op(*d, 0, cmd), ReplyCode::kOk);
  d->engine().run_for(msec(200));
  EXPECT_EQ(d->metrics().counter("client.hints"), 0u);
  EXPECT_EQ(d->metrics().counter("oracle.hints"), 0u);
}

TEST(ClientProxy, TimeoutsRetransmitUntilAnswered) {
  // Latency above the client timeout: progress must come from retransmission
  // (and the reply caches make the retransmissions harmless).
  auto cfg = small_config(2, Strategy::kDssmr, 1);
  cfg.client_timeout = msec(25);
  cfg.net.intra_rack_latency = msec(10);
  cfg.net.inter_rack_latency = msec(18);
  auto d = deployment(cfg);
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 0, kv_add(VarId{0}, 3), &reply), ReplyCode::kOk);
  EXPECT_EQ(kv_num(reply), 3);
  EXPECT_GT(d->metrics().counter("client.timeouts"), 0u);
  // Despite duplicated submissions, the add applied once.
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{0}), &reply), ReplyCode::kOk);
  EXPECT_EQ(kv_num(reply), 3);
}

TEST(ClientProxy, SequentialOpsReuseTheProxy) {
  auto d = deployment(small_config(2, Strategy::kDssmr));
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(run_op(*d, 0, kv_add(VarId{0}, 1)), ReplyCode::kOk);
    EXPECT_FALSE(d->client(0).busy());
  }
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{0}), &reply), ReplyCode::kOk);
  EXPECT_EQ(kv_num(reply), 20);
}

// Regression: a failed move (non-kOk reply) used to be dropped on the floor in
// kAwaitMove — the timeout then replayed the identical move id forever, the
// destination's cached kRetry reply came back forever, and the client never
// reached the S-SMR fallback. The phantom variable below is known only to the
// oracle, so every move the oracle prophesies is doomed to a partial install.
TEST(ClientProxy, FailedMoveRetriesThenFallsBack) {
  auto cfg = small_config(2, Strategy::kDssmr, 1);
  cfg.trace = true;
  auto d = std::make_unique<Deployment>(
      cfg, kv::kv_app_factory(),
      [] { return std::make_unique<DssmrPolicy>(DssmrPolicy::DestRule::kMostHeld); });
  d->preload_var(VarId{1}, d->partition_gid(1), kv::KvValue{7, ""});
  // Phantom: the oracle believes VarId{5} lives on partition 0, but no
  // partition actually holds it — a permanently stale mapping.
  for (std::size_t r = 0; r < cfg.oracle_replicas; ++r) {
    d->oracle(r).preload(VarId{5}, d->partition_gid(0));
  }
  d->start();
  d->settle();

  bool done = false;
  smr::ReplyCode rc = ReplyCode::kNok;
  d->client(0).issue(kv_sum({VarId{1}, VarId{5}}, VarId{1}),
                     [&](smr::ReplyCode c, const net::MessagePtr&) {
                       done = true;
                       rc = c;
                     });
  const Time deadline = d->engine().now() + sec(30);
  while (!done && d->engine().now() < deadline) {
    d->engine().run_until(std::min<Time>(d->engine().now() + msec(10), deadline));
  }
  ASSERT_TRUE(done) << "client wedged replaying a failed move";
  EXPECT_EQ(rc, ReplyCode::kOk);
  EXPECT_GE(d->metrics().counter("client.retries"), 1u);
  EXPECT_EQ(d->metrics().counter("client.fallbacks"), 1u);

  const stats::SpanStore& events = d->metrics().spans();
  EXPECT_GE(events.count(stats::InstantKind::kMoveFailed), 1u);
  EXPECT_GE(events.count(stats::InstantKind::kRetry), 1u);
  EXPECT_EQ(events.count(stats::InstantKind::kFallback), 1u);
}

// Regression: after a move the client used to cache ALL the command's
// variables at the destination, even though the destination gives up its claim
// on variables no source shipped. The move reply now carries the installed
// set, and only that set may enter the cache.
TEST(ClientProxy, FailedMoveCachesOnlyInstalledVars) {
  auto cfg = small_config(2, Strategy::kDssmr, 1);
  cfg.trace = true;
  cfg.client_max_retries = -1;  // first failed move goes straight to fallback
  auto d = std::make_unique<Deployment>(
      cfg, kv::kv_app_factory(),
      [] { return std::make_unique<DssmrPolicy>(DssmrPolicy::DestRule::kMostHeld); });
  d->preload_var(VarId{1}, d->partition_gid(1), kv::KvValue{7, ""});
  for (std::size_t r = 0; r < cfg.oracle_replicas; ++r) {
    d->oracle(r).preload(VarId{5}, d->partition_gid(0));
  }
  d->start();
  d->settle();

  EXPECT_EQ(run_op(*d, 0, kv_sum({VarId{1}, VarId{5}}, VarId{1})), ReplyCode::kOk);
  EXPECT_EQ(d->metrics().counter("client.fallbacks"), 1u);
  EXPECT_GE(d->metrics().spans().count(stats::InstantKind::kMoveFailed), 1u);
  // The phantom never landed anywhere: caching it would poison the cache.
  EXPECT_EQ(d->client(0).cached_location(VarId{5}), std::nullopt);
  // The real variable did install at the move destination and may be cached.
  EXPECT_TRUE(d->client(0).cached_location(VarId{1}).has_value());
}

// At-most-once even after reply-cache eviction: a duplicate access whose
// reply-cache entry was already evicted must be caught by the per-client
// watermark — dropped silently below it, answered from the stored final
// reply at it, and never re-executed. The real client proxy cannot produce
// this ordering (total order delivers its retransmissions before any later
// command), so the test forges CommandMsg deliveries from a bare multicast
// client with hand-picked logical command ids.
TEST(ClientProxy, DuplicateAfterReplyCacheEvictionExecutesOnce) {
  auto cfg = small_config(1, Strategy::kDssmr, 1);
  cfg.server.reply_cache_capacity = 1;  // every new reply evicts the previous
  auto d = deployment(cfg, /*vars=*/2);

  RecordingClient rc;
  d->network().add_process(rc, 0);
  rc.init_client_node(d->network(), d->server(0, 0).directory());

  const auto forge = [&](std::uint64_t seq, smr::Command cmd) {
    cmd.requester = rc.pid();
    cmd.id = MsgId{(static_cast<std::uint64_t>(rc.pid().value) << 32) | seq};
    rc.amcast({d->partition_gid(0)}, net::make_msg<smr::CommandMsg>(std::move(cmd)));
    d->engine().run_for(msec(50));
  };
  const auto last_num = [&] {
    const auto& r = net::msg_as<smr::ReplyMsg>(rc.replies.back());
    EXPECT_EQ(r.code, ReplyCode::kOk);
    return kv_num(r.app_reply);
  };

  forge(1, kv_add(VarId{0}, 3));
  ASSERT_EQ(rc.replies.size(), 1u);
  EXPECT_EQ(last_num(), 3);

  // A second command evicts the add's entry from the capacity-1 reply cache...
  forge(2, kv_get(VarId{0}));
  ASSERT_EQ(rc.replies.size(), 2u);
  EXPECT_EQ(last_num(), 3);

  // ...so this stale duplicate misses the cache. Below the watermark it must
  // be dropped without a reply — and without executing the add again.
  forge(1, kv_add(VarId{0}, 3));
  EXPECT_EQ(rc.replies.size(), 2u);

  // A duplicate of the watermark command itself gets the stored reply resent.
  forge(2, kv_get(VarId{0}));
  ASSERT_EQ(rc.replies.size(), 3u);
  EXPECT_EQ(last_num(), 3);

  // Fresh read confirms the add applied exactly once.
  forge(3, kv_get(VarId{0}));
  ASSERT_EQ(rc.replies.size(), 4u);
  EXPECT_EQ(last_num(), 3);
}

TEST(ClientProxy, StaticStrategyNeverTouchesTheOracle) {
  auto d = deployment(small_config(2, Strategy::kStaticSsmr));
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(run_op(*d, 0, kv_sum({VarId{0}, VarId{1}}, VarId{0})), ReplyCode::kOk);
  }
  EXPECT_EQ(d->metrics().counter("client.consults"), 0u);
  EXPECT_EQ(d->metrics().counter("oracle.consults"), 0u);
  EXPECT_EQ(d->metrics().counter("client.moves"), 0u);
}

}  // namespace
}  // namespace dssmr::core
