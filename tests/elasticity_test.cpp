// Elastic repartitioning: the add-partition / remove-partition plan events,
// the Nemesis executing them, and the acceptance properties every shipped
// scale plan must hold — linearizable client histories while partitions come
// and go (alone and mixed with fault events), no command lost or duplicated
// across a drain, byte-identical run records across same-seed runs, and no
// `elasticity` section (no elastic footprint at all) when no plan scales.
#include "fault/nemesis.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

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
using smr::ReplyCode;
using namespace dssmr::testing;

// ---- scale events in the plan DSL --------------------------------------------

TEST(ScalePlanParse, SingleAddEvent) {
  const FaultPlan p = parse_plan("add-partition@30s");
  ASSERT_EQ(p.events.size(), 1u);
  EXPECT_EQ(p.events[0].action, FaultAction::kAddPartition);
  EXPECT_EQ(p.events[0].at, sec(30));
}

TEST(ScalePlanParse, RemoveCarriesPartitionIndex) {
  const FaultPlan p = parse_plan("remove-partition:2@60s");
  ASSERT_EQ(p.events.size(), 1u);
  EXPECT_EQ(p.events[0].action, FaultAction::kRemovePartition);
  EXPECT_EQ(p.events[0].target.kind, FaultTarget::Kind::kPartition);
  EXPECT_EQ(p.events[0].target.partition, 2u);
  EXPECT_EQ(p.events[0].at, sec(60));
}

TEST(ScalePlanParse, TimeUnitsAndOrdering) {
  // Events sort by trigger time whatever order they are written in.
  const FaultPlan p = parse_plan("remove-partition:1@1s;add-partition@500us");
  ASSERT_EQ(p.events.size(), 2u);
  EXPECT_EQ(p.events[0].action, FaultAction::kAddPartition);
  EXPECT_EQ(p.events[0].at, usec(500));
  EXPECT_EQ(p.events[1].action, FaultAction::kRemovePartition);
  EXPECT_EQ(p.events[1].at, sec(1));
}

TEST(ScalePlanParse, MalformedSpecsThrow) {
  EXPECT_THROW(parse_plan("add-partition"), std::invalid_argument);         // no @time
  EXPECT_THROW(parse_plan("add-partition:3@1ms"), std::invalid_argument);   // add takes no arg
  EXPECT_THROW(parse_plan("remove-partition@1ms"), std::invalid_argument);  // no index
  EXPECT_THROW(parse_plan("shrink:1@1ms"), std::invalid_argument);          // unknown action
  EXPECT_THROW(parse_plan("add-partition@10fortnights"), std::invalid_argument);
}

TEST(ScalePlanParse, ShippedPlansAllResolve) {
  const std::vector<std::string> names = shipped_plan_names(true);
  EXPECT_EQ(names, (std::vector<std::string>{"scale-out", "scale-in", "scale-bounce"}));
  for (const std::string& name : names) {
    const FaultPlan p = resolve_plan(name);
    EXPECT_EQ(p.name, name);
    EXPECT_FALSE(p.events.empty()) << name;
  }
}

// ---- scale-event validation and execution ------------------------------------

harness::DeploymentConfig elastic_config(std::size_t parts, std::size_t clients) {
  auto cfg = small_config(parts, Strategy::kDssmr, clients);
  cfg.elastic = true;
  return cfg;
}

void preload_kv(Deployment& d, std::size_t vars, lincheck::KvSpec* spec = nullptr) {
  for (std::size_t i = 0; i < vars; ++i) {
    d.preload_var(VarId{i}, d.partition_gid(i % d.config().partitions), kv::KvValue{0, ""});
    if (spec != nullptr) spec->preload(VarId{i}, 0, "");
  }
}

/// Runs the engine until the nemesis has fired every event and passed every
/// drain barrier (bounded, so a wedged drain fails the test instead of
/// spinning forever).
void run_until_quiesced(Deployment& d, const Nemesis& s, Duration limit = sec(30)) {
  const Time deadline = d.engine().now() + limit;
  while (!s.quiesced() && d.engine().now() < deadline) {
    d.engine().run_for(msec(5));
  }
  ASSERT_TRUE(s.quiesced()) << "scale plan did not quiesce within the time limit";
}

TEST(Scaler, ValidatesPlanAgainstDeploymentShape) {
  auto cfg = elastic_config(2, 2);
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  // Partition 5 never exists in a 2-partition deployment.
  EXPECT_THROW(Nemesis(d, resolve_plan("remove-partition:5@1ms")), std::invalid_argument);
  // Removing the same partition twice.
  EXPECT_THROW(Nemesis(d, resolve_plan("remove-partition:1@1ms;remove-partition:1@2ms")),
               std::invalid_argument);
  // Draining down to zero live partitions.
  EXPECT_THROW(Nemesis(d, resolve_plan("remove-partition:0@1ms;remove-partition:1@2ms")),
               std::invalid_argument);
  // Partition 2 exists once the add before it has fired, for scale and fault
  // events alike.
  EXPECT_NO_THROW(Nemesis(d, resolve_plan("add-partition@1ms;remove-partition:2@2ms")));
  EXPECT_NO_THROW(Nemesis(d, resolve_plan("remove-partition:1@1ms")));
  EXPECT_NO_THROW(Nemesis(d, resolve_plan("add-partition@1ms;crash:p2r0@2ms")));
  EXPECT_THROW(Nemesis(d, resolve_plan("crash:p2r0@1ms;add-partition@2ms")),
               std::invalid_argument);
}

TEST(Scaler, ScaleOutAdmitsPartitionAndRebalances) {
  constexpr std::size_t kVars = 48;
  auto cfg = elastic_config(2, 2);
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  preload_kv(d, kVars);
  d.start();
  d.settle();

  Nemesis s{d, resolve_plan("add-partition@5ms")};
  s.arm();
  run_until_quiesced(d, s);
  d.engine().run_for(sec(1));  // let the chunked rebalance moves finish

  EXPECT_EQ(d.partition_count(), 3u);
  EXPECT_EQ(d.live_partition_gids().size(), 3u);
  EXPECT_EQ(d.metrics().counter("elastic.partitions_added"), 1u);
  EXPECT_GT(d.metrics().counter("elastic.rebalance_moves"), 0u);
  EXPECT_GT(d.metrics().counter("elastic.rebalance_vars"), 0u);
  // The new partition actually holds state: some of the preloaded variables
  // were shipped onto it by the rebalance.
  std::size_t on_new = 0;
  for (std::size_t r = 0; r < cfg.replicas_per_partition; ++r) {
    on_new = std::max(on_new, d.server(2, r).store().owned_count());
  }
  EXPECT_GT(on_new, 0u);
  // Every variable is still readable through a client after the rebalance.
  for (std::size_t i = 0; i < kVars; ++i) {
    EXPECT_EQ(run_op(d, 0, kv_get(VarId{i})), ReplyCode::kOk) << "var " << i;
  }
  const auto violations = d.audit_consistency();
  for (const auto& v : violations) ADD_FAILURE() << v;
}

TEST(Scaler, ScaleInDrainsWithoutLosingOrDuplicatingState) {
  constexpr std::size_t kVars = 24;
  auto cfg = elastic_config(2, 2);
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  preload_kv(d, kVars);
  d.start();
  d.settle();

  // Give every variable a distinct value so a lost or duplicated move shows.
  for (std::size_t i = 0; i < kVars; ++i) {
    ASSERT_EQ(run_op(d, 0, kv_add(VarId{i}, static_cast<std::int64_t>(i + 1))),
              ReplyCode::kOk);
  }

  Nemesis s{d, resolve_plan("remove-partition:1@5ms")};
  s.arm();
  run_until_quiesced(d, s);

  EXPECT_TRUE(d.partition_retired(1));
  EXPECT_TRUE(d.partition_drained(1));
  EXPECT_EQ(d.live_partition_gids().size(), 1u);
  EXPECT_EQ(d.metrics().counter("elastic.partitions_retired"), 1u);
  const stats::Histogram* h = d.metrics().find_histogram("elastic.drain_time_us");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 1u);

  // No command lost: every variable kept exactly the value written before the
  // drain. No duplication: the quiescent audit would flag a variable owned by
  // two partitions.
  for (std::size_t i = 0; i < kVars; ++i) {
    net::MessagePtr reply;
    ASSERT_EQ(run_op(d, 0, kv_get(VarId{i}), &reply), ReplyCode::kOk) << "var " << i;
    EXPECT_EQ(kv_num(reply), static_cast<std::int64_t>(i + 1)) << "var " << i;
  }
  const auto violations = d.audit_consistency();
  for (const auto& v : violations) ADD_FAILURE() << v;
}

TEST(Scaler, RetiredPartitionAnswersRetiredAndClientsReroute) {
  constexpr std::size_t kVars = 8;
  auto cfg = elastic_config(2, 2);
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  preload_kv(d, kVars);
  d.start();
  d.settle();

  Nemesis s{d, resolve_plan("remove-partition:1@5ms")};
  s.arm();
  run_until_quiesced(d, s);

  // Writes keep succeeding after the retire: stale prophecies pointing at the
  // drained group come back kRetired and the client re-consults and retries.
  for (std::size_t i = 0; i < kVars; ++i) {
    EXPECT_EQ(run_op(d, i % d.client_count(), kv_add(VarId{i}, 1)), ReplyCode::kOk)
        << "var " << i;
  }
  for (std::size_t r = 0; r < cfg.replicas_per_partition; ++r) {
    EXPECT_TRUE(d.server(1, r).retired());
    EXPECT_EQ(d.server(1, r).store().owned_count(), 0u);
  }
}

TEST(Nemesis, MixedPlanFiresFaultAndScaleEvents) {
  auto cfg = elastic_config(2, 2);
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  preload_kv(d, 8);
  d.start();
  d.settle();

  // The fault events target the partition the plan added first.
  Nemesis nem{d, resolve_plan("add-partition@5ms;crash:p2r0@50ms;recover:p2r0@100ms")};
  nem.arm();
  d.engine().run_for(msec(60));
  EXPECT_TRUE(d.server(2, 0).halted());
  run_until_quiesced(d, nem);

  EXPECT_FALSE(d.server(2, 0).halted());
  EXPECT_EQ(nem.events_fired(), 3u);
  EXPECT_EQ(d.metrics().counter("faults.events_injected"), 2u);
  EXPECT_EQ(d.metrics().counter("faults.crashes"), 1u);
  EXPECT_EQ(d.metrics().counter("faults.recoveries"), 1u);
  EXPECT_EQ(d.metrics().counter("elastic.plan_events"), 1u);
  EXPECT_EQ(d.metrics().counter("elastic.partitions_added"), 1u);
}

TEST(Nemesis, DrainThatRunsOutSaysSo) {
  // Partition 1 loses its quorum before the remove, so its variables can
  // never move off it and the drain barrier never holds.
  auto cfg = elastic_config(2, 2);
  cfg.telemetry = true;
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  preload_kv(d, 8);
  d.start();
  d.settle();

  Nemesis nem{d, resolve_plan("crash:p1r0@1ms;crash:p1r1@1ms;remove-partition:1@5ms")};
  nem.arm();
  d.engine().run_for(sec(6));

  EXPECT_FALSE(nem.quiesced());
  EXPECT_FALSE(d.partition_retired(1));
  EXPECT_EQ(d.metrics().counter("elastic.poll_expired"), 1u);
  EXPECT_FALSE(d.metrics().counters().contains("faults.poll_expired"));
  const stats::SpanStore& events = d.metrics().spans();
  std::size_t marks = 0;
  for (const stats::Instant& e : events.instants()) {
    if (events.label(e) == "gave up waiting for the drain of partition 1") ++marks;
  }
  EXPECT_EQ(marks, 1u);
}

// ---- acceptance: linearizable histories under every shipped scale plan -------

class ShippedScalePlanLinearizability : public ::testing::TestWithParam<std::string> {};

TEST_P(ShippedScalePlanLinearizability, HistoriesUnderPlanAreLinearizable) {
  constexpr std::size_t kVars = 4;
  auto cfg = elastic_config(2, 3);
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  lincheck::KvSpec spec;
  preload_kv(d, kVars, &spec);
  d.start();
  d.settle();

  Nemesis s{d, resolve_plan(GetParam())};
  s.arm();
  // Paced clients stretch the history past the last plan event (400ms), so
  // adds and drains land while operations are in flight.
  auto history =
      record_history(d, /*ops_per_client=*/8, /*seed=*/31, kVars, /*think=*/msec(250));
  ASSERT_EQ(history.size(), 24u);
  EXPECT_TRUE(lincheck::is_linearizable(history, spec)) << "plan " << GetParam();
  EXPECT_EQ(s.events_fired(), resolve_plan(GetParam()).events.size());
}

INSTANTIATE_TEST_SUITE_P(AllShippedScalePlans, ShippedScalePlanLinearizability,
                         ::testing::ValuesIn(shipped_plan_names(true)), plan_param_name);

// ---- acceptance: elasticity composed with nemesis fault injection ------------

TEST(ElasticityUnderFaults, ScaleOutDuringLeaderKillIsLinearizable) {
  constexpr std::size_t kVars = 4;
  auto cfg = elastic_config(2, 3);
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  lincheck::KvSpec spec;
  preload_kv(d, kVars, &spec);
  d.start();
  d.settle();

  // The nemesis kills and recovers a partition leader while it is admitting
  // a fresh partition and rebalancing onto it.
  Nemesis nem{d, resolve_plan("kill-leader:p0@120ms;recover:last@700ms;add-partition@150ms")};
  nem.arm();

  auto history =
      record_history(d, /*ops_per_client=*/8, /*seed=*/47, kVars, /*think=*/msec(250));
  EXPECT_TRUE(lincheck::is_linearizable(history, spec));
  EXPECT_GT(d.metrics().counter("faults.events_injected"), 0u);
  EXPECT_EQ(d.metrics().counter("elastic.partitions_added"), 1u);
}

TEST(ElasticityUnderFaults, ScaleInDuringDropBurstIsLinearizable) {
  constexpr std::size_t kVars = 4;
  auto cfg = elastic_config(2, 3);
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  lincheck::KvSpec spec;
  preload_kv(d, kVars, &spec);
  d.start();
  d.settle();

  Nemesis nem{d, resolve_plan("drop:0.05@100ms+300ms;remove-partition:1@150ms")};
  nem.arm();

  auto history =
      record_history(d, /*ops_per_client=*/8, /*seed=*/53, kVars, /*think=*/msec(250));
  EXPECT_TRUE(lincheck::is_linearizable(history, spec));
  run_until_quiesced(d, nem);
  const auto violations = d.audit_consistency();
  for (const auto& v : violations) ADD_FAILURE() << v;
}

// ---- acceptance: byte-identical run records under every shipped plan ---------

std::string scale_record_json(const std::string& plan, std::uint64_t seed) {
  harness::ChirperRunConfig cfg;
  cfg.partitions = 2;
  cfg.clients_per_partition = 3;
  cfg.replicas_per_partition = 3;
  cfg.graph = {.n = 300, .m = 2, .p_triad = 0.8};
  cfg.warmup = msec(100);
  cfg.measure = msec(900);
  cfg.seed = seed;
  cfg.nemesis = plan;
  const harness::RunResult r = harness::run_chirper(cfg);
  std::ostringstream os;
  stats::write_run_records(os, "elasticity_test", {harness::make_run_record(cfg, r)});
  return os.str();
}

class ShippedScalePlanDeterminism : public ::testing::TestWithParam<std::string> {};

TEST_P(ShippedScalePlanDeterminism, SameSeedSameRunRecordBytes) {
  const std::string first = scale_record_json(GetParam(), 77);
  const std::string second = scale_record_json(GetParam(), 77);
  EXPECT_GT(first.size(), 100u);
  EXPECT_EQ(first, second) << "plan " << GetParam();
  // The v7 elasticity section is present and the run recorded plan events.
  EXPECT_NE(first.find("\"elasticity\""), std::string::npos);
  EXPECT_NE(first.find("\"plan_events\""), std::string::npos);
  EXPECT_NE(first.find("\"nemesis\": \"" + GetParam() + "\""), std::string::npos);
  // Scale events count as elasticity only: no faults section.
  EXPECT_EQ(first.find("\"faults\""), std::string::npos);
  // Plans that retire a partition must surface the drain-latency histogram.
  if (GetParam() != "scale-out") {
    EXPECT_NE(first.find("\"drain_time_us\""), std::string::npos) << "plan " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(AllShippedScalePlans, ShippedScalePlanDeterminism,
                         ::testing::ValuesIn(shipped_plan_names(true)), plan_param_name);

TEST(ElasticityRunRecord, NoScalePlanMeansNoElasticFootprint) {
  // A run whose plan never scales must leave zero elastic trace in the
  // record: no `elasticity` section, no `elastic.*` counter.
  // This is the byte-identity guard against pre-elasticity output (modulo the
  // schema token): the feature is pay-for-what-you-use.
  harness::ChirperRunConfig cfg;
  cfg.partitions = 2;
  cfg.clients_per_partition = 2;
  cfg.graph = {.n = 200, .m = 2, .p_triad = 0.8};
  cfg.warmup = msec(50);
  cfg.measure = msec(200);
  const harness::RunResult r = harness::run_chirper(cfg);
  std::ostringstream os;
  stats::write_run_records(os, "elasticity_test", {harness::make_run_record(cfg, r)});
  EXPECT_EQ(os.str().find("\"elasticity\""), std::string::npos);
  EXPECT_EQ(os.str().find("elastic."), std::string::npos);
}

}  // namespace
}  // namespace dssmr::fault
