// The Paxos leader's batching rule at deployment level: a leader kill/recover
// with commands in flight splits no slot (linearizability and consistency
// hold), and run records carry none of the removed submission batcher's
// artifacts. The rule itself is unit-tested in paxos_test.cpp.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "fault/fault_plan.h"
#include "fault/nemesis.h"
#include "harness/experiment.h"
#include "lincheck/lincheck.h"
#include "smr/kv.h"
#include "stats/run_record.h"
#include "testing/dssmr_fixture.h"
#include "testing/history.h"

namespace dssmr::multicast {
namespace {

using core::Strategy;
using harness::Deployment;
using namespace dssmr::testing;

TEST(BatchedFaults, LeaderKillRecoverSplitsNoBatch) {
  // A Paxos batch split across a leader failover must neither duplicate nor
  // drop commands: drive load through the whole leader-kill-recover plan and
  // check the history is linearizable and the deployment consistent
  // afterwards.
  constexpr std::size_t kVars = 6;
  auto cfg = small_config(2, Strategy::kDssmr, 3);
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  lincheck::KvSpec spec;
  for (std::size_t i = 0; i < kVars; ++i) {
    d.preload_var(VarId{i}, d.partition_gid(i % 2), kv::KvValue{0, ""});
    spec.preload(VarId{i}, 0, "");
  }
  d.start();
  d.settle();

  fault::Nemesis nem{d, fault::resolve_plan("leader-kill-recover")};
  nem.arm();
  // think-time paces the clients so the kill (120ms) and recovery (700ms)
  // both land while commands are in flight.
  auto history = record_history(d, 8, 42, kVars, /*think=*/msec(40));
  ASSERT_EQ(history.size(), 24u);
  EXPECT_TRUE(lincheck::is_linearizable(history, spec));
  d.engine().run_for(sec(1));  // let the 700ms recovery land and drain
  EXPECT_EQ(d.metrics().counter("faults.leader_kills"), 1u);
  EXPECT_EQ(d.metrics().counter("faults.recoveries"), 1u);
  EXPECT_TRUE(d.audit_consistency().empty());
}

TEST(BatchedDeterminism, OffRunsCarryNoBatchingArtifacts) {
  harness::ChirperRunConfig cfg;
  cfg.partitions = 2;
  cfg.clients_per_partition = 3;
  cfg.graph = {.n = 300, .m = 2, .p_triad = 0.8};
  cfg.warmup = msec(100);
  cfg.measure = msec(300);
  cfg.seed = 78;
  std::ostringstream os;
  stats::write_run_records(os, "batching_test",
                           {harness::make_run_record(cfg, harness::run_chirper(cfg))});
  const std::string json = os.str();
  EXPECT_EQ(json.find("\"batching\""), std::string::npos);
  EXPECT_EQ(json.find("batch_size"), std::string::npos);
  EXPECT_EQ(json.find("\"batch.flushes\""), std::string::npos);
}

}  // namespace
}  // namespace dssmr::multicast
