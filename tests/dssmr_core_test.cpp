// End-to-end protocol tests of the DS-SMR core over the full stack
// (clients -> oracle -> atomic multicast -> partitions).
#include <gtest/gtest.h>

#include "harness/deployment.h"
#include "smr/kv.h"
#include "testing/dssmr_fixture.h"

namespace dssmr {
namespace {

using core::Strategy;
using harness::Deployment;
using harness::DeploymentConfig;
using smr::ReplyCode;
using namespace dssmr::testing;

std::unique_ptr<Deployment> make_kv_deployment(
    DeploymentConfig cfg, std::size_t vars = 8,
    core::DssmrPolicy::DestRule rule = core::DssmrPolicy::DestRule::kMostHeld) {
  auto d = std::make_unique<Deployment>(cfg, kv::kv_app_factory(), [rule] {
    return std::make_unique<core::DssmrPolicy>(rule);
  });
  // v0..v{n-1} spread round-robin across partitions, value num = id * 10.
  for (std::size_t i = 0; i < vars; ++i) {
    d->preload_var(VarId{i}, d->partition_gid(i % cfg.partitions),
                   kv::KvValue{static_cast<std::int64_t>(i * 10), "init"});
  }
  d->start();
  d->settle();
  return d;
}

TEST(DssmrCore, SinglePartitionRead) {
  auto d = make_kv_deployment(small_config(2, Strategy::kDssmr));
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{2}), &reply), ReplyCode::kOk);
  EXPECT_EQ(kv_num(reply), 20);
  EXPECT_EQ(kv_data(reply), "init");
}

TEST(DssmrCore, SinglePartitionWriteVisibleToLaterReads) {
  auto d = make_kv_deployment(small_config(2, Strategy::kDssmr));
  EXPECT_EQ(run_op(*d, 0, kv_set({VarId{3}}, "hello")), ReplyCode::kOk);
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 1, kv_get(VarId{3}), &reply), ReplyCode::kOk);
  EXPECT_EQ(kv_data(reply), "hello");
}

TEST(DssmrCore, CrossPartitionCommandMovesAndExecutes) {
  auto d = make_kv_deployment(small_config(2, Strategy::kDssmr));
  // v0 (partition 0) + v1 (partition 1): DS-SMR must collocate, then execute.
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 0, kv_sum({VarId{0}, VarId{1}}, VarId{1}), &reply), ReplyCode::kOk);
  EXPECT_EQ(kv_num(reply), 0 + 10);
  EXPECT_GE(d->metrics().counter("client.moves"), 1u);
  // Both variables now live on one partition, according to the oracle...
  const GroupId p0 = d->oracle(0).mapping().locate(VarId{0});
  const GroupId p1 = d->oracle(0).mapping().locate(VarId{1});
  EXPECT_EQ(p0, p1);
  // ...and according to the partitions themselves.
  int owners = 0;
  for (std::size_t p = 0; p < 2; ++p) {
    if (d->server(p, 0).store().owns(VarId{0}) && d->server(p, 0).store().owns(VarId{1})) ++owners;
  }
  EXPECT_EQ(owners, 1);
}

TEST(DssmrCore, SubsequentAccessIsSinglePartition) {
  auto d = make_kv_deployment(small_config(2, Strategy::kDssmr));
  EXPECT_EQ(run_op(*d, 0, kv_sum({VarId{0}, VarId{1}}, VarId{1})), ReplyCode::kOk);
  const auto moves_before = d->metrics().counter("client.moves");
  // Same variable pair again: no further moves needed.
  EXPECT_EQ(run_op(*d, 1, kv_sum({VarId{0}, VarId{1}}, VarId{0})), ReplyCode::kOk);
  EXPECT_EQ(d->metrics().counter("client.moves"), moves_before);
}

TEST(DssmrCore, LocationCacheSkipsConsult) {
  auto d = make_kv_deployment(small_config(2, Strategy::kDssmr));
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{2})), ReplyCode::kOk);
  const auto consults = d->metrics().counter("client.consults");
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{2})), ReplyCode::kOk);  // cached now
  EXPECT_EQ(d->metrics().counter("client.consults"), consults);
  EXPECT_GE(d->metrics().counter("client.cache_hits"), 1u);
  EXPECT_EQ(d->client(0).cached_location(VarId{2}), d->partition_gid(0));
}

TEST(DssmrCore, CacheDisabledAlwaysConsults) {
  auto cfg = small_config(2, Strategy::kDssmr);
  cfg.client_cache = false;
  auto d = make_kv_deployment(cfg);
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{2})), ReplyCode::kOk);
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{2})), ReplyCode::kOk);
  EXPECT_EQ(d->metrics().counter("client.consults"), 2u);
  EXPECT_EQ(d->metrics().counter("client.cache_hits"), 0u);
}

TEST(DssmrCore, StaleCacheTriggersRetryAndRecovers) {
  auto d = make_kv_deployment(small_config(2, Strategy::kDssmr));
  // Client 0 caches v1 -> partition 1.
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{1})), ReplyCode::kOk);
  // Client 1 collocates v0+v2+v1; most-held sends all three to partition 0.
  EXPECT_EQ(run_op(*d, 1, kv_sum({VarId{0}, VarId{2}, VarId{1}}, VarId{1})), ReplyCode::kOk);
  ASSERT_EQ(d->oracle(0).mapping().locate(VarId{1}), d->partition_gid(0));
  // Client 0's cache is stale; the access must still succeed via retry.
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{1}), &reply), ReplyCode::kOk);
  EXPECT_EQ(kv_num(reply), 30);  // the sum wrote 0+20+10 into v1
  EXPECT_GE(d->metrics().counter("client.retries"), 1u);
  EXPECT_GE(d->metrics().counter("server.retries_issued"), 1u);
}

TEST(DssmrCore, FallbackToSsmrAfterRetryBudget) {
  auto cfg = small_config(2, Strategy::kDssmr);
  cfg.client_max_retries = -1;  // any retry goes straight to the fall-back
  auto d = make_kv_deployment(cfg);
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{1})), ReplyCode::kOk);  // warm cache: v1 @ P1
  EXPECT_EQ(run_op(*d, 1, kv_sum({VarId{0}, VarId{2}, VarId{1}}, VarId{1})), ReplyCode::kOk);
  ASSERT_EQ(d->oracle(0).mapping().locate(VarId{1}), d->partition_gid(0));
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{1}), &reply), ReplyCode::kOk);
  EXPECT_EQ(d->metrics().counter("client.fallbacks"), 1u);
  EXPECT_EQ(kv_num(reply), 30);
}

TEST(DssmrCore, CreateThenAccess) {
  auto d = make_kv_deployment(small_config(2, Strategy::kDssmr));
  EXPECT_EQ(run_op(*d, 0, make_create(VarId{100})), ReplyCode::kOk);
  EXPECT_EQ(run_op(*d, 0, kv_add(VarId{100}, 5)), ReplyCode::kOk);
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 1, kv_get(VarId{100}), &reply), ReplyCode::kOk);
  EXPECT_EQ(kv_num(reply), 5);
}

TEST(DssmrCore, DuplicateCreateRejected) {
  auto d = make_kv_deployment(small_config(2, Strategy::kDssmr));
  EXPECT_EQ(run_op(*d, 0, make_create(VarId{100})), ReplyCode::kOk);
  EXPECT_EQ(run_op(*d, 1, make_create(VarId{100})), ReplyCode::kNok);
  EXPECT_EQ(run_op(*d, 0, make_create(VarId{0})), ReplyCode::kNok);  // preloaded
}

TEST(DssmrCore, DeleteThenAccessFails) {
  auto d = make_kv_deployment(small_config(2, Strategy::kDssmr));
  EXPECT_EQ(run_op(*d, 0, make_delete(VarId{4})), ReplyCode::kOk);
  EXPECT_EQ(run_op(*d, 1, kv_get(VarId{4})), ReplyCode::kNok);
  // The variable is gone from the partitions, too.
  for (std::size_t p = 0; p < 2; ++p) EXPECT_FALSE(d->server(p, 0).store().owns(VarId{4}));
}

TEST(DssmrCore, AccessUnknownVariableIsNok) {
  auto d = make_kv_deployment(small_config(2, Strategy::kDssmr));
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{999})), ReplyCode::kNok);
}

TEST(DssmrCore, CreateAfterDeleteSucceeds) {
  auto d = make_kv_deployment(small_config(2, Strategy::kDssmr));
  EXPECT_EQ(run_op(*d, 0, make_delete(VarId{5})), ReplyCode::kOk);
  EXPECT_EQ(run_op(*d, 0, make_create(VarId{5})), ReplyCode::kOk);
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{5}), &reply), ReplyCode::kOk);
  EXPECT_EQ(kv_num(reply), 0);  // fresh default, not the old value
}

TEST(DssmrCore, ReplicasOfPartitionConverge) {
  auto d = make_kv_deployment(small_config(2, Strategy::kDssmr));
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(run_op(*d, static_cast<std::size_t>(i % 4), kv_add(VarId{i % 8u}, i)),
              ReplyCode::kOk);
  }
  EXPECT_EQ(run_op(*d, 0, kv_sum({VarId{0}, VarId{1}, VarId{2}}, VarId{0})), ReplyCode::kOk);
  d->engine().run_for(sec(1));  // let followers drain their queues
  for (std::size_t p = 0; p < 2; ++p) {
    for (VarId v : {VarId{0}, VarId{1}, VarId{2}, VarId{3}}) {
      if (!d->server(p, 0).store().owns(v)) continue;
      const auto* a = dynamic_cast<const kv::KvValue*>(d->server(p, 0).store().get(v));
      ASSERT_NE(a, nullptr);
      for (std::size_t r = 1; r < 3; ++r) {
        const auto* b = dynamic_cast<const kv::KvValue*>(d->server(p, r).store().get(v));
        ASSERT_NE(b, nullptr) << "replica " << r << " missing var " << v.value;
        EXPECT_EQ(a->num, b->num);
        EXPECT_EQ(a->data, b->data);
      }
    }
  }
}

// ---- S-SMR baseline ----------------------------------------------------------

TEST(SsmrBaseline, SinglePartitionOps) {
  auto d = make_kv_deployment(small_config(2, Strategy::kStaticSsmr));
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{2}), &reply), ReplyCode::kOk);
  EXPECT_EQ(kv_num(reply), 20);
  EXPECT_EQ(d->metrics().counter("client.consults"), 0u);  // static oracle is local
}

TEST(SsmrBaseline, CrossPartitionExecutionIsExecutionAtomic) {
  auto d = make_kv_deployment(small_config(2, Strategy::kStaticSsmr));
  // v0 @ P0, v1 @ P1, v3 @ P1: sum across partitions, write into v3.
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 0, kv_sum({VarId{0}, VarId{1}}, VarId{3}), &reply), ReplyCode::kOk);
  EXPECT_EQ(kv_num(reply), 10);
  EXPECT_EQ(run_op(*d, 1, kv_get(VarId{3}), &reply), ReplyCode::kOk);
  EXPECT_EQ(kv_num(reply), 10);
  // No moves ever happen under the static scheme.
  EXPECT_EQ(d->metrics().counter("client.moves"), 0u);
  EXPECT_GE(d->metrics().counter("server.multi_partition_commands"), 1u);
}

TEST(SsmrBaseline, WritesApplyAtOwningPartitionOnly) {
  auto d = make_kv_deployment(small_config(2, Strategy::kStaticSsmr));
  EXPECT_EQ(run_op(*d, 0, kv_set({VarId{0}, VarId{1}}, "both")), ReplyCode::kOk);
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{0}), &reply), ReplyCode::kOk);
  EXPECT_EQ(kv_data(reply), "both");
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{1}), &reply), ReplyCode::kOk);
  EXPECT_EQ(kv_data(reply), "both");
  // Ownership unchanged.
  EXPECT_TRUE(d->server(0, 0).store().owns(VarId{0}));
  EXPECT_TRUE(d->server(1, 0).store().owns(VarId{1}));
}

TEST(SsmrBaseline, FourPartitionSpanningCommand) {
  auto d = make_kv_deployment(small_config(4, Strategy::kStaticSsmr), /*vars=*/8);
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 0, kv_sum({VarId{0}, VarId{1}, VarId{2}, VarId{3}}, VarId{0}), &reply),
            ReplyCode::kOk);
  EXPECT_EQ(kv_num(reply), 0 + 10 + 20 + 30);
}

// ---- fault tolerance -----------------------------------------------------------

TEST(DssmrFaults, SurvivesOracleLeaderCrash) {
  auto d = make_kv_deployment(small_config(2, Strategy::kDssmr));
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{0})), ReplyCode::kOk);
  // Crash the oracle leader.
  for (std::size_t r = 0; r < 3; ++r) {
    if (d->oracle(r).is_leader()) {
      d->network().crash(d->oracle(r).pid());
      d->oracle(r).halt_node();
      break;
    }
  }
  // A cache-missing op needs the oracle; the client's timeout + the new
  // oracle leader must carry it through.
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 1, kv_sum({VarId{0}, VarId{1}}, VarId{1}), &reply), ReplyCode::kOk);
  EXPECT_EQ(kv_num(reply), 10);
}

TEST(DssmrFaults, SurvivesPartitionLeaderCrash) {
  auto d = make_kv_deployment(small_config(2, Strategy::kDssmr));
  EXPECT_EQ(run_op(*d, 0, kv_add(VarId{0}, 7)), ReplyCode::kOk);
  for (std::size_t r = 0; r < 3; ++r) {
    if (d->server(0, r).is_leader()) {
      d->network().crash(d->server(0, r).pid());
      d->server(0, r).halt_node();
      break;
    }
  }
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 1, kv_get(VarId{0}), &reply), ReplyCode::kOk);
  EXPECT_EQ(kv_num(reply), 7);
}

TEST(DssmrFaults, ExactlyOnceUnderDuplicatedSubmissions) {
  // kAdd is not idempotent; the reply cache must absorb client retransmits.
  auto cfg = small_config(2, Strategy::kDssmr);
  cfg.client_timeout = msec(30);  // aggressive timeouts -> spurious resends
  cfg.net.inter_rack_latency = msec(20);
  cfg.net.intra_rack_latency = msec(10);
  auto d = make_kv_deployment(cfg);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(run_op(*d, 0, kv_add(VarId{0}, 1)), ReplyCode::kOk);
  }
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 1, kv_get(VarId{0}), &reply), ReplyCode::kOk);
  EXPECT_EQ(kv_num(reply), 5);
}

}  // namespace
}  // namespace dssmr
