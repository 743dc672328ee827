// Nemesis fault injection: the FaultPlan DSL, the Nemesis executor, and the
// acceptance properties every shipped plan must hold — linearizable client
// histories under the fault, byte-identical run records across same-seed
// runs, and a populated `faults` section in the v3 run-record JSON.
#include "fault/nemesis.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>

#include "fault/fault_plan.h"
#include "harness/experiment.h"
#include "lincheck/lincheck.h"
#include "smr/kv.h"
#include "stats/run_record.h"
#include "testing/dssmr_fixture.h"
#include "testing/history.h"
#include "testing/plans.h"

namespace dssmr::fault {
namespace {

using core::Strategy;
using harness::Deployment;
using namespace dssmr::testing;

// ---- FaultPlan DSL -----------------------------------------------------------

TEST(FaultPlanParse, SingleCrashEvent) {
  const FaultPlan p = parse_plan("crash:p1r2@120ms");
  ASSERT_EQ(p.events.size(), 1u);
  EXPECT_EQ(p.events[0].action, FaultAction::kCrash);
  EXPECT_EQ(p.events[0].at, msec(120));
  EXPECT_EQ(p.events[0].target.kind, FaultTarget::Kind::kReplica);
  EXPECT_EQ(p.events[0].target.partition, 1u);
  EXPECT_EQ(p.events[0].target.replica, 2u);
}

TEST(FaultPlanParse, TimeUnitsAndOrdering) {
  // Events sort by trigger time whatever order they are written in.
  const FaultPlan p = parse_plan("recover:oracle0@1s;crash:oracle0@500us");
  ASSERT_EQ(p.events.size(), 2u);
  EXPECT_EQ(p.events[0].action, FaultAction::kCrash);
  EXPECT_EQ(p.events[0].at, usec(500));
  EXPECT_EQ(p.events[1].action, FaultAction::kRecover);
  EXPECT_EQ(p.events[1].at, sec(1));
}

TEST(FaultPlanParse, KillLeaderAndRecoverLast) {
  const FaultPlan p = parse_plan("kill-leader:oracle@10ms;recover:last@50ms");
  ASSERT_EQ(p.events.size(), 2u);
  EXPECT_EQ(p.events[0].action, FaultAction::kKillLeader);
  EXPECT_EQ(p.events[0].target.kind, FaultTarget::Kind::kOracle);
  EXPECT_EQ(p.events[1].target.kind, FaultTarget::Kind::kLastVictim);
}

TEST(FaultPlanParse, CutSidesAndDirection) {
  const FaultPlan sym = parse_plan("cut:p0+oracle1|p1@1ms");
  ASSERT_EQ(sym.events.size(), 1u);
  EXPECT_FALSE(sym.events[0].directed);
  ASSERT_EQ(sym.events[0].side_a.size(), 2u);
  EXPECT_EQ(sym.events[0].side_a[0].kind, FaultTarget::Kind::kPartition);
  EXPECT_EQ(sym.events[0].side_a[1].kind, FaultTarget::Kind::kOracleReplica);
  ASSERT_EQ(sym.events[0].side_b.size(), 1u);

  const FaultPlan dir = parse_plan("cut:p0r0>p0@1ms");
  EXPECT_TRUE(dir.events[0].directed);
}

TEST(FaultPlanParse, DropBurst) {
  const FaultPlan p = parse_plan("drop:0.25@100ms+300ms");
  ASSERT_EQ(p.events.size(), 1u);
  EXPECT_EQ(p.events[0].action, FaultAction::kDropBurst);
  EXPECT_DOUBLE_EQ(p.events[0].drop_probability, 0.25);
  EXPECT_EQ(p.events[0].at, msec(100));
  EXPECT_EQ(p.events[0].duration, msec(300));
}

TEST(FaultPlanParse, MixesFaultAndScaleEvents) {
  const FaultPlan p = parse_plan("kill-leader:p0@120ms;recover:last@700ms;add-partition@150ms");
  ASSERT_EQ(p.events.size(), 3u);
  EXPECT_EQ(p.events[0].action, FaultAction::kKillLeader);
  EXPECT_EQ(p.events[1].action, FaultAction::kAddPartition);
  EXPECT_EQ(p.events[1].at, msec(150));
  EXPECT_EQ(p.events[2].action, FaultAction::kRecover);
  EXPECT_TRUE(p.elastic());
  EXPECT_FALSE(parse_plan("kill-leader:p0@120ms;recover:last@700ms").elastic());
}

TEST(FaultPlanParse, MalformedSpecsThrow) {
  EXPECT_THROW(parse_plan(""), std::invalid_argument);
  EXPECT_THROW(parse_plan("crash:p0r0"), std::invalid_argument);       // no @time
  EXPECT_THROW(parse_plan("crash:p0@10ms"), std::invalid_argument);    // group, not process
  EXPECT_THROW(parse_plan("explode:p0r0@1ms"), std::invalid_argument); // unknown action
  EXPECT_THROW(parse_plan("crash:last@1ms"), std::invalid_argument);
  EXPECT_THROW(parse_plan("kill-leader:p0r1@1ms"), std::invalid_argument);
  EXPECT_THROW(parse_plan("cut:p0@1ms"), std::invalid_argument);       // one side
  EXPECT_THROW(parse_plan("drop:0.5@1ms"), std::invalid_argument);     // no duration
  EXPECT_THROW(parse_plan("crash:p0r0@10fortnights"), std::invalid_argument);
}

TEST(FaultPlanParse, ShippedPlansAllResolve) {
  ASSERT_FALSE(shipped_plans().empty());
  for (const ShippedPlan& sp : shipped_plans()) {
    const FaultPlan p = resolve_plan(sp.name);
    EXPECT_EQ(p.name, sp.name);
    EXPECT_FALSE(p.events.empty()) << sp.name;
  }
  // Non-names fall through to the DSL parser.
  EXPECT_EQ(resolve_plan("heal@1ms").name, "custom");
  EXPECT_THROW(resolve_plan("no-such-plan"), std::invalid_argument);
}

// ---- Nemesis execution -------------------------------------------------------

void preload_kv(Deployment& d, std::size_t vars, lincheck::KvSpec* spec = nullptr) {
  for (std::size_t i = 0; i < vars; ++i) {
    d.preload_var(VarId{i}, d.partition_gid(i % d.config().partitions), kv::KvValue{0, ""});
    if (spec != nullptr) spec->preload(VarId{i}, 0, "");
  }
}

TEST(Nemesis, ValidatesTargetsAgainstDeploymentShape) {
  auto cfg = small_config(2, Strategy::kDssmr, 2);
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  EXPECT_THROW(Nemesis(d, resolve_plan("crash:p5r0@1ms")), std::invalid_argument);
  EXPECT_THROW(Nemesis(d, resolve_plan("crash:p0r9@1ms")), std::invalid_argument);
  EXPECT_THROW(Nemesis(d, resolve_plan("crash:oracle7@1ms")), std::invalid_argument);
  EXPECT_THROW(Nemesis(d, resolve_plan("kill-leader:p2@1ms")), std::invalid_argument);
  EXPECT_NO_THROW(Nemesis(d, resolve_plan("crash:p1r2@1ms")));
}

TEST(Nemesis, CrashRecoverCycleCountsAndRestores) {
  auto cfg = small_config(2, Strategy::kDssmr, 2);
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  preload_kv(d, 4);
  d.start();
  d.settle();

  Nemesis nem{d, resolve_plan("crash:p0r1@5ms;recover:p0r1@40ms")};
  nem.arm();
  d.engine().run_for(msec(10));
  EXPECT_TRUE(d.server(0, 1).halted());
  EXPECT_TRUE(d.network().crashed(d.server(0, 1).pid()));
  d.engine().run_for(msec(50));
  EXPECT_FALSE(d.server(0, 1).halted());
  EXPECT_FALSE(d.network().crashed(d.server(0, 1).pid()));
  EXPECT_EQ(nem.events_fired(), 2u);
  EXPECT_EQ(d.metrics().counter("faults.events_injected"), 2u);
  EXPECT_EQ(d.metrics().counter("faults.crashes"), 1u);
  EXPECT_EQ(d.metrics().counter("faults.recoveries"), 1u);
  // The window closed, so the in-window counters exist (possibly zero).
  EXPECT_TRUE(d.metrics().counters().contains("faults.retries_in_window"));
}

TEST(Nemesis, RecoverLastSkipsARecoveredVictim) {
  // p1r1 goes down after p0r1 but comes back by name first, so `last` must
  // resolve to p0r1, the most recent victim that is still down.
  auto cfg = small_config(2, Strategy::kDssmr, 2);
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  preload_kv(d, 4);
  d.start();
  d.settle();

  Nemesis nem{d, resolve_plan("crash:p0r1@5ms;crash:p1r1@10ms;recover:p1r1@20ms;"
                              "recover:last@30ms")};
  nem.arm();
  d.engine().run_for(msec(40));
  EXPECT_FALSE(d.server(0, 1).halted());
  EXPECT_FALSE(d.server(1, 1).halted());
  EXPECT_EQ(d.metrics().counter("faults.recoveries"), 2u);
}

TEST(Nemesis, KillLeaderElectsReplacementAndMeasuresIt) {
  auto cfg = small_config(2, Strategy::kDssmr, 2);
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  preload_kv(d, 4);
  d.start();
  d.settle();

  Nemesis nem{d, resolve_plan("leader-kill-recover")};
  nem.arm();
  d.engine().run_for(sec(1));

  EXPECT_EQ(d.metrics().counter("faults.leader_kills"), 1u);
  EXPECT_EQ(d.metrics().counter("faults.crashes"), 1u);
  EXPECT_EQ(d.metrics().counter("faults.recoveries"), 1u);
  // 3 replicas: the surviving majority elects a replacement, and the watcher
  // recorded how long that took.
  const stats::Histogram* h = d.metrics().find_histogram("faults.time_to_new_leader_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);
  EXPECT_GT(h->mean(), 0.0);
  std::size_t live_leaders = 0;
  for (std::size_t r = 0; r < cfg.replicas_per_partition; ++r) {
    if (!d.server(0, r).halted() && d.server(0, r).is_leader()) ++live_leaders;
  }
  EXPECT_GE(live_leaders, 1u);
}

TEST(Nemesis, LeaderWatchThatRunsOutSaysSo) {
  // 2-replica groups: the survivor of a leader kill never has a quorum, so
  // the group never re-elects and the leader watch gives up.
  auto cfg = small_config(2, Strategy::kDssmr, 2);
  cfg.replicas_per_partition = 2;
  cfg.telemetry = true;
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  preload_kv(d, 4);
  d.start();
  d.settle();

  Nemesis nem{d, resolve_plan("kill-leader:p0@1ms")};
  nem.arm();
  d.engine().run_for(sec(6));

  EXPECT_EQ(d.metrics().counter("faults.leader_kills"), 1u);
  EXPECT_EQ(d.metrics().counter("faults.poll_expired"), 1u);
  EXPECT_EQ(d.metrics().find_histogram("faults.time_to_new_leader_us"), nullptr);
  const stats::SpanStore& events = d.metrics().spans();
  std::size_t marks = 0;
  for (const stats::Instant& e : events.instants()) {
    if (events.label(e) == "gave up waiting for a new leader of p0") ++marks;
  }
  EXPECT_EQ(marks, 1u);
}

TEST(Nemesis, QuorumLossIsCountedAndMarked) {
  // A crash that leaves a group one short of a majority is counted once and
  // marked; crashing the survivor too loses nothing more. A 3-replica group
  // keeps its majority through one crash and carries no such key. The wait
  // for p0's next leader is a restart in the first group (nobody can be
  // elected until both replicas are back) and an election in the second.
  for (const std::size_t replicas : {2u, 3u}) {
    auto cfg = small_config(2, Strategy::kDssmr, 2);
    cfg.replicas_per_partition = replicas;
    cfg.oracle_replicas = replicas;
    cfg.telemetry = true;
    Deployment d{cfg, kv::kv_app_factory(),
                 [] { return std::make_unique<core::DssmrPolicy>(); }};
    preload_kv(d, 4);
    d.start();
    d.settle();

    const std::string plan = replicas == 2 ? "kill-leader:p0@1ms;crash:p0r0@2ms;crash:p0r1@3ms;"
                                             "recover:p0r0@20ms;recover:p0r1@20ms"
                                           : "kill-leader:p0@1ms;crash:oracle1@2ms";
    Nemesis nem{d, resolve_plan(plan)};
    nem.arm();
    d.engine().run_for(msec(500));

    std::size_t marks = 0;
    const stats::SpanStore& events = d.metrics().spans();
    for (const stats::Instant& e : events.instants()) {
      if (events.label(e).starts_with("quorum lost")) {
        EXPECT_EQ(events.label(e), "quorum lost: p0 has 1 of 2 replicas live");
        ++marks;
      }
    }
    const auto samples = [&d](const char* name) {
      const stats::Histogram* h = d.metrics().find_histogram(name);
      return h == nullptr ? 0 : h->count();
    };
    if (replicas == 2) {
      EXPECT_EQ(d.metrics().counter("faults.quorum_lost"), 1u);
      EXPECT_EQ(marks, 1u);
      EXPECT_EQ(samples("faults.time_to_restart_us"), 1u);
      EXPECT_EQ(samples("faults.time_to_new_leader_us"), 0u);
    } else {
      EXPECT_FALSE(d.metrics().counters().contains("faults.quorum_lost"));
      EXPECT_EQ(marks, 0u);
      EXPECT_EQ(samples("faults.time_to_restart_us"), 0u);
      EXPECT_EQ(samples("faults.time_to_new_leader_us"), 1u);
    }
  }
}

TEST(Nemesis, HealRestoresExactlyTheCutLinks) {
  auto cfg = small_config(2, Strategy::kDssmr, 2);
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  preload_kv(d, 4);
  d.start();
  d.settle();

  const ProcessId a = d.server(0, 0).pid();
  const ProcessId b = d.server(1, 0).pid();

  Nemesis nem{d, resolve_plan("partition-heal")};
  nem.arm();
  d.engine().run_for(msec(200));
  EXPECT_FALSE(d.network().link_up(a, b));
  EXPECT_FALSE(d.network().link_up(b, a));
  EXPECT_GT(d.metrics().counter("faults.links_cut"), 0u);
  d.engine().run_for(msec(400));
  EXPECT_TRUE(d.network().link_up(a, b));
  EXPECT_TRUE(d.network().link_up(b, a));
  EXPECT_EQ(d.metrics().counter("faults.heals"), 1u);
}

TEST(Nemesis, AsymmetricCutIsDirectional) {
  auto cfg = small_config(2, Strategy::kDssmr, 2);
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  preload_kv(d, 4);
  d.start();
  d.settle();

  Nemesis nem{d, resolve_plan("asym-partition")};
  nem.arm();
  d.engine().run_for(msec(200));
  const ProcessId victim = d.server(0, 0).pid();
  const ProcessId peer = d.server(0, 1).pid();
  EXPECT_FALSE(d.network().link_up(victim, peer));  // victim -> peer cut
  EXPECT_TRUE(d.network().link_up(peer, victim));   // peer -> victim still up
  d.engine().run_for(msec(400));
  EXPECT_TRUE(d.network().link_up(victim, peer));
}

TEST(Nemesis, DropBurstRestoresPreviousProbability) {
  auto cfg = small_config(2, Strategy::kDssmr, 2);
  cfg.net.drop_probability = 0.01;
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  preload_kv(d, 4);
  d.start();
  d.settle();

  Nemesis nem{d, resolve_plan("drop-burst")};
  nem.arm();
  d.engine().run_for(msec(150));
  EXPECT_DOUBLE_EQ(d.network().config().drop_probability, 0.05);
  d.engine().run_for(msec(400));
  EXPECT_DOUBLE_EQ(d.network().config().drop_probability, 0.01);
  EXPECT_EQ(d.metrics().counter("faults.drop_bursts"), 1u);
}

// ---- acceptance: linearizable histories under every shipped plan -------------

class ShippedPlanLinearizability : public ::testing::TestWithParam<std::string> {};

TEST_P(ShippedPlanLinearizability, HistoriesUnderPlanAreLinearizable) {
  constexpr std::size_t kVars = 4;
  auto cfg = small_config(2, Strategy::kDssmr, 3);
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  lincheck::KvSpec spec;
  preload_kv(d, kVars, &spec);
  d.start();
  d.settle();

  Nemesis nem{d, resolve_plan(GetParam())};
  nem.arm();
  // Paced clients stretch the history past the last plan event (700ms), so
  // every injection lands while operations are in flight.
  auto history =
      record_history(d, /*ops_per_client=*/8, /*seed=*/23, kVars, /*think=*/msec(250));
  ASSERT_EQ(history.size(), 24u);
  EXPECT_TRUE(lincheck::is_linearizable(history, spec)) << "plan " << GetParam();
  EXPECT_GT(d.metrics().counter("faults.events_injected"), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllShippedPlans, ShippedPlanLinearizability,
                         ::testing::ValuesIn(shipped_plan_names(false)), plan_param_name);

// ---- acceptance: byte-identical run records under every shipped plan ---------

std::string nemesis_record_json(const std::string& plan, std::uint64_t seed) {
  harness::ChirperRunConfig cfg;
  cfg.partitions = 2;
  cfg.clients_per_partition = 3;
  cfg.replicas_per_partition = 3;  // keep quorums alive across kill-leader
  cfg.graph = {.n = 300, .m = 2, .p_triad = 0.8};
  cfg.warmup = msec(100);
  cfg.measure = msec(900);
  cfg.seed = seed;
  cfg.nemesis = plan;
  const harness::RunResult r = harness::run_chirper(cfg);
  std::ostringstream os;
  stats::write_run_records(os, "fault_test", {harness::make_run_record(cfg, r)});
  return os.str();
}

class ShippedPlanDeterminism : public ::testing::TestWithParam<std::string> {};

TEST_P(ShippedPlanDeterminism, SameSeedSameRunRecordBytes) {
  const std::string first = nemesis_record_json(GetParam(), 77);
  const std::string second = nemesis_record_json(GetParam(), 77);
  EXPECT_GT(first.size(), 100u);
  EXPECT_EQ(first, second) << "plan " << GetParam();
  // The v3 faults section is present and the run recorded injections.
  EXPECT_NE(first.find("\"faults\""), std::string::npos);
  EXPECT_NE(first.find("\"events_injected\""), std::string::npos);
  EXPECT_NE(first.find("\"nemesis\": \"" + GetParam() + "\""), std::string::npos);
  // Fault events count as faults only: no elasticity section.
  EXPECT_EQ(first.find("\"elasticity\""), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(AllShippedPlans, ShippedPlanDeterminism,
                         ::testing::ValuesIn(shipped_plan_names(false)), plan_param_name);

TEST(FaultRunRecord, NoNemesisMeansNoFaultsSection) {
  harness::ChirperRunConfig cfg;
  cfg.partitions = 2;
  cfg.clients_per_partition = 2;
  cfg.graph = {.n = 200, .m = 2, .p_triad = 0.8};
  cfg.warmup = msec(50);
  cfg.measure = msec(200);
  const harness::RunResult r = harness::run_chirper(cfg);
  std::ostringstream os;
  stats::write_run_records(os, "fault_test", {harness::make_run_record(cfg, r)});
  EXPECT_EQ(os.str().find("\"faults\""), std::string::npos);
  EXPECT_NE(os.str().find("\"nemesis\": \"none\""), std::string::npos);
}

}  // namespace
}  // namespace dssmr::fault
