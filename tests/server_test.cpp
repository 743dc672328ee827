// Partition-server behaviour under tricky interleavings: head-of-line
// blocking, S-SMR variable exchange details, move edge cases, exactly-once
// replies.
#include <gtest/gtest.h>

#include "chirper/chirper.h"
#include "core/oracle.h"
#include "harness/deployment.h"
#include "smr/kv.h"
#include "testing/cluster.h"
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
  EXPECT_TRUE(d->server(0, 0).store().owns(VarId{0}));
  EXPECT_FALSE(d->server(0, 0).store().owns(VarId{1}));
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
  EXPECT_TRUE(d->server(0, 0).store().owns(VarId{1}));
  EXPECT_FALSE(d->server(1, 0).store().owns(VarId{1}));
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

/// Hand delivery into a deployment's replicas: the protected delivery hooks,
/// reached through member pointers named in derived classes.
struct ServerHooks : PartitionServer {
  static void amdeliver(PartitionServer& s, const multicast::AmcastMessage& m) {
    (s.*&ServerHooks::on_amdeliver)(m);
  }
  static void rmdeliver(PartitionServer& s, const net::MessagePtr& payload) {
    (s.*&ServerHooks::on_rmdeliver)(kNoProcess, payload);
  }
};
struct OracleHooks : OracleNode {
  static void amdeliver(OracleNode& o, const multicast::AmcastMessage& m) {
    (o.*&OracleHooks::on_amdeliver)(m);
  }
};

/// A move of `v` from `source` to `dest`, as the amcast layer delivers it.
multicast::AmcastMessage move_msg(const Deployment& d, std::uint64_t id, VarId v, GroupId source,
                                  GroupId dest) {
  smr::Command c;
  c.type = smr::CommandType::kMove;
  c.id = MsgId{id};
  c.write_set = {v};
  c.move_sources = {source};
  c.move_dest = dest;
  return multicast::AmcastMessage{.id = MsgId{id},
                                  .sender = kNoProcess,
                                  .dests = {source, dest, d.oracle_gid()},
                                  .payload = net::make_msg<smr::CommandMsg>(c)};
}

TEST(ServerMove, FailedInstallDoesNotDropALaterClaim) {
  // Replicas run a move's task at different times relative to the later
  // deliveries. Move 1 brings v to P0 from P1, which does not hold it (a
  // stale prophecy), so its install fails and gives the claim up. Move 2
  // brings v from P2, where it is. Replica 0 runs move 1's task before move
  // 2 is delivered; replica 1 gets P1's (empty) shipment only after it, and
  // its give-up must not erase move 2's claim.
  auto cfg = small_config(3, Strategy::kDssmr, 1);
  cfg.replicas_per_partition = 2;
  Deployment d{cfg, kv::kv_app_factory(), [] { return std::make_unique<DssmrPolicy>(); }};
  const VarId v{0};
  d.preload_var(v, d.partition_gid(2), kv::KvValue{7, ""});
  d.start();
  d.settle();

  const auto move1 = move_msg(d, 101, v, d.partition_gid(1), d.partition_gid(0));
  const auto move2 = move_msg(d, 102, v, d.partition_gid(2), d.partition_gid(0));
  const auto p1_ships_nothing = net::make_msg<smr::VarShipMsg>(
      MsgId{101}, d.partition_gid(1), decltype(smr::VarShipMsg::vars){});

  for (std::size_t r = 0; r < 2; ++r) ServerHooks::amdeliver(d.server(0, r), move1);
  ServerHooks::rmdeliver(d.server(0, 0), p1_ships_nothing);
  d.engine().run_for(msec(1));
  EXPECT_FALSE(d.server(0, 0).store().owns(v));  // replica 0 gave move 1's claim up
  EXPECT_TRUE(d.server(0, 1).store().owns(v));   // replica 1 still waits for P1

  for (std::size_t r = 0; r < 2; ++r) {
    ServerHooks::amdeliver(d.server(0, r), move2);
    ServerHooks::amdeliver(d.server(2, r), move2);  // P2 ships v to P0
  }
  for (std::size_t r = 0; r < cfg.oracle_replicas; ++r) {
    OracleHooks::amdeliver(d.oracle(r), move1);
    OracleHooks::amdeliver(d.oracle(r), move2);
  }
  ServerHooks::rmdeliver(d.server(0, 1), p1_ships_nothing);
  d.engine().run_for(msec(100));

  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_TRUE(d.server(0, r).store().owns(v)) << "replica " << r;
    EXPECT_TRUE(d.server(0, r).store().contains(v)) << "replica " << r;
  }
  const auto violations = d.audit_consistency();
  for (const auto& violation : violations) ADD_FAILURE() << violation;
  EXPECT_TRUE(violations.empty());
}

TEST(ServerMove, CreateShipsTheSameValueWhereverItsMoveOutLands) {
  // A move-out of a new variable is delivered before the create's task runs
  // on replica 1, and after it on replica 0. The task makes the default value
  // either way (tasks run in delivery order, so the move-out's task then
  // ships it), and P1 installs what replica 1 ships, which arrives first.
  auto cfg = small_config(2, Strategy::kDssmr, 1);
  cfg.replicas_per_partition = 2;
  Deployment d{cfg, kv::kv_app_factory(), [] { return std::make_unique<DssmrPolicy>(); }};
  d.start();
  d.settle();
  const VarId v{0};
  smr::Command c;
  c.type = smr::CommandType::kCreate;
  c.id = MsgId{201};
  c.write_set = {v};
  const multicast::AmcastMessage create{.id = MsgId{201},
                                        .sender = kNoProcess,
                                        .dests = {d.partition_gid(0), d.oracle_gid()},
                                        .payload = net::make_msg<smr::CommandMsg>(c)};
  const auto move_out = move_msg(d, 202, v, d.partition_gid(0), d.partition_gid(1));

  ServerHooks::amdeliver(d.server(0, 0), create);
  d.engine().run_for(msec(1));
  ASSERT_TRUE(d.server(0, 0).store().contains(v));  // replica 0 ran the create's task
  ServerHooks::amdeliver(d.server(0, 1), create);
  ServerHooks::amdeliver(d.server(0, 1), move_out);
  for (std::size_t r = 0; r < 2; ++r) ServerHooks::amdeliver(d.server(1, r), move_out);
  d.engine().run_for(msec(100));
  ServerHooks::amdeliver(d.server(0, 0), move_out);
  d.engine().run_for(msec(100));

  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_FALSE(d.server(0, r).store().holds(v)) << "replica " << r;
    EXPECT_TRUE(d.server(1, r).store().owns(v)) << "replica " << r;
    EXPECT_TRUE(d.server(1, r).store().contains(v)) << "replica " << r;
  }
}

TEST(ServerMove, SourceIgnoresARetransmittedSettledMove) {
  // Move 1 takes v from P1 to P0 and move 2 brings it back. A retransmission
  // of move 1 delivered at P1 afterwards must not give v up a second time.
  auto cfg = small_config(2, Strategy::kDssmr, 1);
  cfg.replicas_per_partition = 2;
  Deployment d{cfg, kv::kv_app_factory(), [] { return std::make_unique<DssmrPolicy>(); }};
  const VarId v{0};
  d.preload_var(v, d.partition_gid(1), kv::KvValue{7, ""});
  d.start();
  d.settle();
  const auto move1 = move_msg(d, 301, v, d.partition_gid(1), d.partition_gid(0));
  const auto move2 = move_msg(d, 302, v, d.partition_gid(0), d.partition_gid(1));
  auto deliver = [&](const multicast::AmcastMessage& m) {
    for (std::size_t p = 0; p < 2; ++p) {
      for (std::size_t r = 0; r < 2; ++r) ServerHooks::amdeliver(d.server(p, r), m);
    }
    d.engine().run_for(msec(100));
  };
  deliver(move1);
  ASSERT_TRUE(d.server(0, 0).store().contains(v));
  deliver(move2);
  const std::uint64_t sourced = d.metrics().counter("server.moves_source");
  for (std::size_t r = 0; r < 2; ++r) ServerHooks::amdeliver(d.server(1, r), move1);
  d.engine().run_for(msec(100));

  EXPECT_EQ(d.metrics().counter("server.moves_source"), sourced);
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_TRUE(d.server(1, r).store().owns(v)) << "replica " << r;
    EXPECT_TRUE(d.server(1, r).store().contains(v)) << "replica " << r;
    EXPECT_FALSE(d.server(0, r).store().holds(v)) << "replica " << r;
  }
}

TEST(ServerAudit, NamesTheFirstVariableReplicasDisagreeOn) {
  // Only replica 1 of P0 has moves of v3 and v2 delivered, so only it claims
  // them; the audit names the smaller one.
  auto cfg = small_config(2, Strategy::kDssmr, 1);
  cfg.replicas_per_partition = 2;
  Deployment d{cfg, kv::kv_app_factory(), [] { return std::make_unique<DssmrPolicy>(); }};
  for (std::uint64_t i = 0; i < 4; ++i) {
    d.preload_var(VarId{i}, d.partition_gid(1), kv::KvValue{0, ""});
  }
  d.start();
  d.settle();
  for (std::uint64_t i : {3, 2}) {
    ServerHooks::amdeliver(d.server(0, 1),
                           move_msg(d, 400 + i, VarId{i}, d.partition_gid(1), d.partition_gid(0)));
  }
  EXPECT_EQ(d.audit_consistency(),
            std::vector<std::string>{
                "partition 0: replica 1 owns 2 vars, replica 0 owns 0; first disputed var 2"});
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
  EXPECT_EQ(d->server(0, 0).store().owned_count(), 4u);
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
  ASSERT_TRUE(d->server(0, 0).store().owns(VarId{1}));
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
  ASSERT_TRUE(d->server(2, 0).store().owns(VarId{1}));
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

/// A partition replica whose delivery hooks a test drives by hand.
class ScriptedServer : public PartitionServer {
 public:
  using PartitionServer::on_amdeliver;
  using PartitionServer::on_rmdeliver;
};

TEST(ServerFailover, ReplyOfACommandTheOldLeaderDecidedComesFromTheNewOne) {
  // The leader crashes right after deciding a command, before executing it.
  // The followers execute it afterwards and hold their reply; the one
  // elected sends it, within the client's timeout and with no re-send.
  auto d = kv_deployment(1, Strategy::kDssmr);
  RecordingClient probe;
  d->network().add_process(probe, 0);
  probe.init_client_node(d->network(), d->client(0).directory());
  std::size_t dead = 0;
  while (dead + 1 < d->config().replicas_per_partition && !d->server(0, dead).is_leader()) ++dead;
  PartitionServer& leader = d->server(0, dead);
  ASSERT_TRUE(leader.is_leader());

  smr::Command cmd = kv_get(VarId{3});
  cmd.id = probe.fresh_id();
  const Time sent = d->engine().now();
  const std::uint64_t before = leader.amcast_delivered();
  probe.amcast({d->partition_gid(0)}, net::make_msg<smr::CommandMsg>(cmd));
  while (leader.amcast_delivered() == before && d->engine().now() < sent + msec(10)) {
    d->engine().run_for(usec(1));
  }
  ASSERT_EQ(leader.amcast_delivered(), before + 1);
  d->network().crash(leader.pid());
  leader.halt_node();

  d->engine().run_until(sent + d->config().client_timeout);
  ASSERT_EQ(probe.replies.size(), 1u);
  const auto* reply = net::msg_cast<smr::ReplyMsg>(probe.replies[0]);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->cmd_id, cmd.id);
  EXPECT_EQ(reply->code, ReplyCode::kOk);
  EXPECT_EQ(kv_num(reply->app_reply), 3);
}

TEST(ServerExec, SecondReplicaShipmentOfAGroupIsIgnored) {
  // Replicas of one partition can diverge, so two replicas of the peer group
  // may ship different variable sets for one command. The first shipment is
  // the group's input; a later one must not add values to it.
  sim::Engine engine;
  net::Network network(engine, {}, 7);
  multicast::Directory directory;
  stats::Metrics metrics;
  ScriptedServer server;
  RecordingGroupNode peer;
  directory.add_group({network.add_process(server, 0)});
  directory.add_group({network.add_process(peer, 1)});
  server.init_partition(network, directory, GroupId{0}, 0, kNoGroup, {}, kv::kv_app_factory(),
                        {}, metrics, 1);
  peer.init_group_node(network, directory, GroupId{1}, {}, metrics, 2);
  server.preload(VarId{0}, std::make_unique<kv::KvValue>(1, ""));

  smr::Command sum = kv_sum({VarId{0}, VarId{1}, VarId{2}}, VarId{0});
  sum.id = MsgId{42};
  server.on_amdeliver({.id = MsgId{1},
                       .sender = kNoProcess,
                       .dests = {GroupId{0}, GroupId{1}},
                       .payload = net::make_msg<smr::CommandMsg>(sum)});
  auto ship = [&](std::vector<std::pair<VarId, std::int64_t>> vars) {
    decltype(smr::VarShipMsg::vars) values;
    for (auto [v, n] : vars) values.emplace_back(v, std::make_shared<kv::KvValue>(n, ""));
    server.on_rmdeliver(kNoProcess, net::make_msg<smr::VarShipMsg>(sum.id, GroupId{1}, values));
  };
  ship({{VarId{1}, 10}});
  ship({{VarId{1}, 99}, {VarId{2}, 50}});
  engine.run_for(msec(1));

  ASSERT_EQ(server.executed_count(), 1u);
  const auto* v0 = dynamic_cast<const kv::KvValue*>(server.store().get(VarId{0}));
  ASSERT_NE(v0, nullptr);
  EXPECT_EQ(v0->num, 1 + 10);
}

/// The value a VarShipMsg carries for `v` (-1 if it carries none).
std::int64_t shipped_num(const net::MessagePtr& m, VarId v) {
  for (const auto& [var, val] : net::msg_as<smr::VarShipMsg>(m).vars) {
    if (var == v) return dynamic_cast<const kv::KvValue&>(*val).num;
  }
  return -1;
}

TEST(ServerMove, SourceShipsOnceNoEarlierTaskTouchesTheVariable) {
  // P0's queue, in delivery order: A adds 5 to v0; B sums v1 and P1's v2
  // into v1 and blocks the head until P1's input arrives; move M1 takes v0
  // to P1, M2 takes v1 there, M3 takes v3 there. Each move ships as soon as
  // no earlier queued task touches its variable: M3 at once, M1 when A
  // returns, although B still blocks the queue, and M2 only after B. Each
  // ships the value it would have shipped at the head of the queue.
  sim::Engine engine;
  net::Network network(engine, {}, 7);
  multicast::Directory directory;
  stats::Metrics metrics;
  ScriptedServer server;
  RecordingGroupNode peer;
  directory.add_group({network.add_process(server, 0)});
  directory.add_group({network.add_process(peer, 1)});
  server.init_partition(network, directory, GroupId{0}, 0, kNoGroup, {}, kv::kv_app_factory(),
                        {}, metrics, 1);
  peer.init_group_node(network, directory, GroupId{1}, {}, metrics, 2);
  for (std::uint64_t v : {0, 1, 3}) {
    server.preload(VarId{v}, std::make_unique<kv::KvValue>(static_cast<std::int64_t>(v) * 100 + 1, ""));
  }
  std::uint64_t seq = 0;
  const auto deliver = [&](smr::Command c, std::vector<GroupId> dests) {
    c.id = MsgId{++seq};
    server.on_amdeliver({.id = c.id,
                         .sender = kNoProcess,
                         .dests = std::move(dests),
                         .payload = net::make_msg<smr::CommandMsg>(std::move(c))});
    return MsgId{seq};
  };
  const auto move = [&](VarId v) {
    return deliver(smr::make_move(MsgId{}, 0, {v}, {GroupId{0}}, GroupId{1}),
                   {GroupId{0}, GroupId{1}});
  };
  const auto ships_for = [&](MsgId id) {
    std::vector<net::MessagePtr> out;
    for (const auto& m : peer.rmdelivered) {
      if (net::msg_as<smr::VarShipMsg>(m).cmd_id == id) out.push_back(m);
    }
    return out;
  };

  deliver(kv_add(VarId{0}, 5), {GroupId{0}});
  const MsgId b = deliver(kv_sum({VarId{1}, VarId{2}}, VarId{1}), {GroupId{0}, GroupId{1}});
  const MsgId m1 = move(VarId{0});
  const MsgId m2 = move(VarId{1});
  const MsgId m3 = move(VarId{3});
  engine.run_for(msec(5));
  ASSERT_EQ(server.executed_count(), 1u);  // A ran; B waits for P1's input
  ASSERT_EQ(ships_for(m3).size(), 1u);
  EXPECT_EQ(shipped_num(ships_for(m3)[0], VarId{3}), 301);
  ASSERT_EQ(ships_for(m1).size(), 1u);
  EXPECT_EQ(shipped_num(ships_for(m1)[0], VarId{0}), 1 + 5);  // after A, not before
  EXPECT_TRUE(ships_for(m2).empty());  // B, queued before M2, writes v1
  ASSERT_EQ(ships_for(b).size(), 1u);   // B's own exchange needed only v1 final
  EXPECT_EQ(shipped_num(ships_for(b)[0], VarId{1}), 101);

  server.on_rmdeliver(kNoProcess,
                      net::make_msg<smr::VarShipMsg>(
                          b, GroupId{1},
                          decltype(smr::VarShipMsg::vars){
                              {VarId{2}, std::make_shared<kv::KvValue>(1000, "")}}));
  engine.run_for(msec(5));
  EXPECT_EQ(server.executed_count(), 5u);
  ASSERT_EQ(ships_for(m2).size(), 1u);
  EXPECT_EQ(shipped_num(ships_for(m2)[0], VarId{1}), 101 + 1000);
  for (std::uint64_t v : {0, 1, 3}) EXPECT_FALSE(server.store().holds(VarId{v})) << v;
}

/// Collects the replies a partition sends to one requester.
class ReplyRecorder : public net::Actor {
 public:
  void on_message(ProcessId, const net::MessagePtr& m) override {
    if (const auto* r = net::msg_cast<smr::ReplyMsg>(m)) replies.push_back(*r);
  }
  std::vector<smr::ReplyMsg> replies;
};

/// A single-replica chirper partition (group 0, leading) whose deliveries
/// are driven by hand; group 1 is the source of its moves. Every command is
/// delivered as `requester`'s, so its replies go there.
struct RetryHarness {
  explicit RetryHarness(std::size_t window) : network(engine, {}, 7) {
    directory.add_group({network.add_process(server, 0)});
    directory.add_group({network.add_process(peer, 1)});
    network.add_process(requester, 0);
    PartitionServerConfig cfg;
    cfg.reply_cache_capacity = window;
    server.init_partition(network, directory, GroupId{0}, 0, kNoGroup, {},
                          chirper::chirper_app_factory(), cfg, metrics, 1);
    peer.init_group_node(network, directory, GroupId{1}, {}, metrics, 2);
    auto user = std::make_unique<chirper::UserValue>();
    for (std::uint64_t i = 1; i <= 3; ++i) {
      chirper::Post post{VarId{2}, i, "post " + std::to_string(i)};
      user->timeline.push(chirper::PostPtr::make(std::move(post)));
    }
    server.preload(kUser, std::move(user));
    server.start();
    engine.run_for(msec(10));  // a one-member group elects itself
  }

  smr::Command timeline() {
    smr::Command c = chirper::make_get_timeline(kUser);
    c.id = MsgId{(std::uint64_t{requester.pid().value} << 32) | ++seq};
    return c;
  }

  /// A move of `v` from group 1 to this partition.
  smr::Command move(VarId v) {
    smr::Command c;
    c.type = smr::CommandType::kMove;
    c.id = MsgId{(std::uint64_t{requester.pid().value} << 32) | ++seq};
    c.write_set = {v};
    c.move_sources = {GroupId{1}};
    c.move_dest = GroupId{0};
    return c;
  }

  void deliver(const smr::Command& c) {
    server.on_amdeliver({.id = MsgId{++amcast_seq},
                         .sender = requester.pid(),
                         .dests = {GroupId{0}},
                         .payload = net::make_msg<smr::CommandMsg>(c)});
    engine.run_for(msec(1));
  }

  /// Delivers move `c` and group 1's shipment of its variable.
  void settle_move(const smr::Command& c) {
    deliver(c);
    decltype(smr::VarShipMsg::vars) values;
    values.emplace_back(c.write_set[0], std::make_shared<chirper::UserValue>());
    server.on_rmdeliver(kNoProcess, net::make_msg<smr::VarShipMsg>(c.id, GroupId{1}, values));
    engine.run_for(msec(1));
  }

  /// The texts of a timeline reply's posts (none for a payload-free reply).
  static std::vector<std::string> posts(const smr::ReplyMsg& r) {
    std::vector<std::string> texts;
    if (const auto* t = net::msg_cast<chirper::TimelineReply>(r.app_reply)) {
      for (const auto& p : t->posts) texts.push_back(p->text);
    }
    return texts;
  }

  static constexpr VarId kUser{1};
  sim::Engine engine;
  net::Network network;
  multicast::Directory directory;
  stats::Metrics metrics;
  ScriptedServer server;
  RecordingGroupNode peer;
  ReplyRecorder requester;
  std::uint64_t seq = 0;
  std::uint64_t amcast_seq = 0;
};

TEST(ServerRetry, RetransmittedSettledCommandsGetTheirReplyBack) {
  // A window of 1 evicts the access once the move settles, so its third copy
  // is answered through the requester's session, not the window.
  for (const std::size_t window : {std::size_t{1} << 15, std::size_t{1}}) {
    SCOPED_TRACE(window);
    RetryHarness h{window};
    const smr::Command get = h.timeline();
    h.deliver(get);
    ASSERT_EQ(h.requester.replies.size(), 1u);
    const std::vector<std::string> posts = RetryHarness::posts(h.requester.replies[0]);
    EXPECT_EQ(posts, (std::vector<std::string>{"post 1", "post 2", "post 3"}));
    h.deliver(get);
    ASSERT_EQ(h.requester.replies.size(), 2u);
    EXPECT_EQ(h.requester.replies[1].cmd_id, get.id);
    EXPECT_EQ(h.requester.replies[1].code, ReplyCode::kOk);
    EXPECT_EQ(RetryHarness::posts(h.requester.replies[1]), posts);

    const smr::Command mv = h.move(VarId{7});
    h.settle_move(mv);
    ASSERT_EQ(h.requester.replies.size(), 3u);
    ASSERT_EQ(h.requester.replies[2].code, ReplyCode::kOk);
    h.deliver(mv);
    ASSERT_EQ(h.requester.replies.size(), 4u);
    EXPECT_EQ(h.requester.replies[3].cmd_id, mv.id);
    EXPECT_EQ(h.requester.replies[3].code, ReplyCode::kOk);
    const auto* result = net::msg_cast<smr::MoveResultMsg>(h.requester.replies[3].app_reply);
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result->installed, std::vector<VarId>{VarId{7}});

    h.deliver(get);
    ASSERT_EQ(h.requester.replies.size(), 5u);
    EXPECT_EQ(RetryHarness::posts(h.requester.replies[4]), posts);
    EXPECT_EQ(h.server.executed_count(), 2u);  // one timeline, one move
  }
}

TEST(ServerRetry, OlderSettledCommandIsNeitherExecutedNorAnswered) {
  // The requester has moved on from an older command and ignores its reply.
  // With a window of 1 the older access has been evicted, and the session's
  // at-most-once watermark drops it instead.
  for (const std::size_t window : {std::size_t{1} << 15, std::size_t{1}}) {
    SCOPED_TRACE(window);
    RetryHarness h{window};
    const smr::Command first = h.timeline();
    h.deliver(first);
    h.deliver(h.timeline());
    ASSERT_EQ(h.requester.replies.size(), 2u);
    h.deliver(first);
    EXPECT_EQ(h.requester.replies.size(), 2u);
    EXPECT_EQ(h.server.executed_count(), 2u);
  }
  // Moves are outside the watermark, so only the window catches them.
  RetryHarness h{std::size_t{1} << 15};
  const smr::Command first = h.move(VarId{7});
  h.settle_move(first);
  h.settle_move(h.move(VarId{8}));
  ASSERT_EQ(h.requester.replies.size(), 2u);
  h.deliver(first);
  EXPECT_EQ(h.requester.replies.size(), 2u);
  EXPECT_EQ(h.server.executed_count(), 2u);
}

TEST(ServerRetry, UnorderedMoveIdsKeepOneSessionPerRequester) {
  // Move ids are outside the access watermark: a requester's moves may settle
  // in any id order. Each move's retransmission still gets its reply back,
  // and the partition keeps one session for the requester however many moves
  // settle.
  for (const std::size_t window : {std::size_t{1} << 15, std::size_t{1}}) {
    SCOPED_TRACE(window);
    RetryHarness h{window};
    h.deliver(h.timeline());
    for (std::uint64_t i = 0; i < 20; ++i) {
      smr::Command mv = h.move(VarId{10 + i});
      // 100, 107, 114, 101, 108, ...: a permutation of 100..119 that keeps
      // going back below the ids already settled.
      mv.id = MsgId{(std::uint64_t{h.requester.pid().value} << 32) | (100 + i * 7 % 20)};
      h.settle_move(mv);
      h.deliver(mv);
      ASSERT_EQ(h.requester.replies.size(), 2 + 2 * i + 1);
      const smr::ReplyMsg& resent = h.requester.replies.back();
      EXPECT_EQ(resent.cmd_id, mv.id);
      const auto* result = net::msg_cast<smr::MoveResultMsg>(resent.app_reply);
      ASSERT_NE(result, nullptr);
      EXPECT_EQ(result->installed, std::vector<VarId>{VarId{10 + i}});
    }
    EXPECT_EQ(h.server.executed_count(), 21u);
    EXPECT_EQ(h.server.session_count(), 1u);
  }
}

TEST(ServerRetry, RetransmittedFusedMoveIsAnsweredAndNeverClaimsAgain) {
  // A fused move settles at its destination whether it succeeded or not: a
  // retransmission is answered from the session and claims nothing again.
  // A claim would wait forever for shipments the sources, which settled the
  // attempt when they shipped, never send again, wedging the queue.
  RetryHarness h{std::size_t{1} << 15};
  const auto fused = [&](VarId followee) {
    smr::Command c = chirper::make_follow(RetryHarness::kUser, followee);
    c.id = MsgId{(std::uint64_t{h.requester.pid().value} << 32) | ++h.seq};
    const MsgId attempt{(std::uint64_t{h.requester.pid().value} << 32) | ++h.seq};
    return std::make_pair(c, smr::fuse_move(c, attempt, {GroupId{1}}, GroupId{0}));
  };
  const auto ship = [&](MsgId id, decltype(smr::VarShipMsg::vars) vars) {
    h.server.on_rmdeliver(kNoProcess, net::make_msg<smr::VarShipMsg>(id, GroupId{1}, vars));
    h.engine.run_for(msec(1));
  };

  // Success: v7 comes in from P1 and the follow executes here.
  const auto [follow7, ok] = fused(VarId{7});
  h.deliver(ok);
  ship(ok.id, {{VarId{7}, std::make_shared<chirper::UserValue>()}});
  ASSERT_EQ(h.requester.replies.size(), 1u);
  EXPECT_EQ(h.requester.replies[0].code, ReplyCode::kOk);
  EXPECT_EQ(h.server.executed_count(), 1u);
  // v7 moves back out; the retransmitted attempt must not claim it again.
  h.settle_move(smr::make_move(MsgId{(std::uint64_t{h.requester.pid().value} << 32) | ++h.seq},
                               0, {VarId{7}}, {GroupId{0}}, GroupId{1}));
  ASSERT_FALSE(h.server.store().owns(VarId{7}));
  h.deliver(ok);
  ASSERT_EQ(h.requester.replies.size(), 2u);
  EXPECT_EQ(h.requester.replies[1].cmd_id, ok.id);
  EXPECT_EQ(h.requester.replies[1].code, ReplyCode::kOk);
  EXPECT_FALSE(h.server.store().owns(VarId{7}));
  EXPECT_EQ(h.server.executed_count(), 2u);  // the follow and the move out

  // Failure: P1 ships nothing for v8, so the attempt answers kRetry with the
  // variables that did land here.
  const auto [follow8, failed] = fused(VarId{8});
  h.deliver(failed);
  ship(failed.id, {});
  ASSERT_EQ(h.requester.replies.size(), 3u);
  EXPECT_EQ(h.requester.replies[2].code, ReplyCode::kRetry);
  const auto* result = net::msg_cast<smr::MoveResultMsg>(h.requester.replies[2].app_reply);
  ASSERT_NE(result, nullptr);
  EXPECT_EQ(result->installed, std::vector<VarId>{RetryHarness::kUser});
  h.deliver(failed);
  ASSERT_EQ(h.requester.replies.size(), 4u);
  EXPECT_EQ(h.requester.replies[3].cmd_id, failed.id);
  EXPECT_EQ(h.requester.replies[3].code, ReplyCode::kRetry);
  EXPECT_FALSE(h.server.store().owns(VarId{8}));
  EXPECT_EQ(h.server.executed_count(), 3u);

  // The queue is not wedged, and the attempt stayed out of the access
  // watermark: once v8 is here, the command's retry under its own, smaller
  // id executes.
  h.settle_move(h.move(VarId{8}));
  ASSERT_EQ(h.requester.replies.size(), 5u);
  ASSERT_LT(follow8.id, failed.id);
  h.deliver(follow8);
  ASSERT_EQ(h.requester.replies.size(), 6u);
  EXPECT_EQ(h.requester.replies[5].cmd_id, follow8.id);
  EXPECT_EQ(h.requester.replies[5].code, ReplyCode::kOk);
  EXPECT_EQ(h.server.executed_count(), 5u);
}

TEST(ServerRetry, FusedAttemptThatOutlivesItsWindowEntryIsNotProcessedAgain) {
  // A window of 1 evicts each attempt as soon as anything else settles, so a
  // slow copy of it is caught by the requester's fused watermark alone.
  RetryHarness h{1};
  const auto fused = [&](smr::Command c, GroupId source, GroupId dest) {
    c.id = MsgId{(std::uint64_t{h.requester.pid().value} << 32) | ++h.seq};
    c.trace_id = c.id.value;
    const MsgId attempt{(std::uint64_t{h.requester.pid().value} << 32) | ++h.seq};
    return std::make_pair(c, smr::fuse_move(c, attempt, {source}, dest));
  };
  const auto ship = [&](MsgId id, decltype(smr::VarShipMsg::vars) vars) {
    h.server.on_rmdeliver(kNoProcess, net::make_msg<smr::VarShipMsg>(id, GroupId{1}, vars));
    h.engine.run_for(msec(1));
  };
  const auto timeline_posts = [&] {
    h.deliver(h.timeline());
    return RetryHarness::posts(h.requester.replies.back()).size();
  };

  // Destination, success: the post runs once. A late copy of an earlier send
  // of the command under its own id finds it settled; a timeline read then
  // evicts the attempt, whose copy is answered and runs nothing either.
  const auto [post, ok] =
      fused(chirper::make_post(RetryHarness::kUser, {VarId{7}}, "hi"), GroupId{1}, GroupId{0});
  h.deliver(ok);
  ship(ok.id, {{VarId{7}, std::make_shared<chirper::UserValue>()}});
  ASSERT_EQ(h.requester.replies.size(), 1u);
  ASSERT_EQ(h.requester.replies[0].code, ReplyCode::kOk);
  h.deliver(post);
  ASSERT_EQ(timeline_posts(), 4u);
  h.deliver(ok);
  ASSERT_EQ(h.requester.replies.size(), 4u);
  EXPECT_EQ(h.requester.replies[3].cmd_id, ok.id);
  EXPECT_EQ(h.requester.replies[3].code, ReplyCode::kOk);
  EXPECT_EQ(timeline_posts(), 4u);

  // Destination, failure: P1 ships nothing for v8. The evicted attempt's
  // copy is answered, claims nothing and leaves no task waiting in the queue.
  const auto [follow, failed] =
      fused(chirper::make_follow(RetryHarness::kUser, VarId{8}), GroupId{1}, GroupId{0});
  h.deliver(failed);
  ship(failed.id, {});
  ASSERT_EQ(h.requester.replies.size(), 6u);
  ASSERT_EQ(h.requester.replies[5].code, ReplyCode::kRetry);
  timeline_posts();
  h.deliver(failed);
  ASSERT_EQ(h.requester.replies.size(), 8u);
  EXPECT_EQ(h.requester.replies[7].cmd_id, failed.id);
  EXPECT_EQ(h.requester.replies[7].code, ReplyCode::kRetry);
  EXPECT_FALSE(h.server.store().owns(VarId{8}));
  EXPECT_EQ(timeline_posts(), 4u);
  EXPECT_EQ(h.requester.replies.size(), 9u);

  // Source: the attempt takes the user to P1; it comes back with a later
  // move, which evicts the attempt. Its copy must not give the user up again.
  const auto [out_cmd, out] =
      fused(chirper::make_follow(RetryHarness::kUser, VarId{9}), GroupId{0}, GroupId{1});
  h.deliver(out);
  const auto ships = [&] {
    return std::count_if(h.peer.rmdelivered.begin(), h.peer.rmdelivered.end(),
                         [&](const net::MessagePtr& m) {
                           return net::msg_as<smr::VarShipMsg>(m).cmd_id == out.id;
                         });
  };
  ASSERT_EQ(ships(), 1);
  ASSERT_FALSE(h.server.store().owns(RetryHarness::kUser));
  h.settle_move(h.move(RetryHarness::kUser));
  ASSERT_TRUE(h.server.store().contains(RetryHarness::kUser));
  h.deliver(out);
  EXPECT_EQ(ships(), 1);
  EXPECT_TRUE(h.server.store().owns(RetryHarness::kUser));
  EXPECT_EQ(h.server.session_count(), 1u);
}

}  // namespace
}  // namespace dssmr::core
