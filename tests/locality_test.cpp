// Locality fast path: prophecy prefetch — functional behavior (prefetch
// installs warm the cache and later commands skip the oracle),
// linearizability with prefetch on (including under every shipped nemesis
// plan), the off-by-default purity the seed relies on (locality-off runs
// produce byte-identical run records and carry no locality artifacts), and
// the guard that rejects the removed cache-repair and coalescing knobs.
#include "core/client_proxy.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "fault/nemesis.h"
#include "harness/experiment.h"
#include "lincheck/lincheck.h"
#include "smr/kv.h"
#include "stats/run_record.h"
#include "testing/dssmr_fixture.h"
#include "testing/history.h"
#include "testing/plans.h"

namespace dssmr::core {
namespace {

using harness::Deployment;
using namespace dssmr::testing;

harness::DeploymentConfig locality_config(std::size_t parts, std::size_t clients) {
  auto cfg = small_config(parts, Strategy::kDssmr, clients);
  cfg.prefetch_k = 8;
  return cfg;
}

void preload_kv(Deployment& d, std::size_t vars, lincheck::KvSpec* spec = nullptr) {
  for (std::size_t i = 0; i < vars; ++i) {
    d.preload_var(VarId{i}, d.partition_gid(i % d.config().partitions), kv::KvValue{0, ""});
    if (spec != nullptr) spec->preload(VarId{i}, 0, "");
  }
}

// ---- prophecy prefetch -------------------------------------------------------

TEST(Prefetch, ConsultInstallsCoAccessedNeighbours) {
  auto cfg = locality_config(2, 2);
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  preload_kv(d, 6);
  d.start();
  d.settle();

  // Client 0's multi-var command seeds the oracle's co-access table with
  // {0,2,4}; client 1 then consults for {0}: the prophecy's prefetch carries
  // 0's co-accessed partners, warming client 1's cache for vars it never
  // touched.
  EXPECT_EQ(run_op(d, 0, kv_sum({VarId{0}, VarId{2}}, VarId{4})), smr::ReplyCode::kOk);
  EXPECT_EQ(run_op(d, 1, kv_get(VarId{0})), smr::ReplyCode::kOk);
  EXPECT_TRUE(d.client(1).cached_location(VarId{2}).has_value());
  EXPECT_TRUE(d.client(1).cached_location(VarId{4}).has_value());
  EXPECT_GT(d.metrics().counter("locality.prefetch_installed"), 0u);

  // The warmed entries are real cache entries: the next command over them
  // skips the oracle entirely when they share a partition.
  const auto loc2 = d.client(1).cached_location(VarId{2});
  const auto loc4 = d.client(1).cached_location(VarId{4});
  ASSERT_TRUE(loc2.has_value() && loc4.has_value());
  if (*loc2 == *loc4) {
    const std::uint64_t consults = d.metrics().counter("client.consults");
    EXPECT_EQ(run_op(d, 1, kv_sum({VarId{2}}, VarId{4})), smr::ReplyCode::kOk);
    EXPECT_EQ(d.metrics().counter("client.consults"), consults);
    EXPECT_GT(d.metrics().counter("locality.prefetch_hits"), 0u);
  }
}

TEST(Prefetch, OffConfigInstallsNothing) {
  auto cfg = small_config(2, Strategy::kDssmr, 2);  // prefetch_k = 0
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  preload_kv(d, 6);
  d.start();
  d.settle();
  EXPECT_EQ(run_op(d, 0, kv_sum({VarId{0}, VarId{2}}, VarId{4})), smr::ReplyCode::kOk);
  EXPECT_EQ(run_op(d, 1, kv_get(VarId{0})), smr::ReplyCode::kOk);
  EXPECT_FALSE(d.client(1).cached_location(VarId{2}).has_value());
  EXPECT_EQ(d.metrics().counter("locality.prefetch_installed"), 0u);
}

// ---- removed knobs ------------------------------------------------------------

// Cache repair and move coalescing are gone; their Knobs fields remain only so
// existing callers that assign the defaults compile. Any other value aborts.
TEST(LocalityDeathTest, RemovedKnobsAbortDeployment) {
  const auto deploy = [](const harness::DeploymentConfig& cfg) {
    Deployment d{cfg, kv::kv_app_factory(),
                 [] { return std::make_unique<core::DssmrPolicy>(); }};
  };
  auto repair = small_config(2, Strategy::kDssmr, 2);
  repair.cache_repair = true;
  EXPECT_DEATH(deploy(repair), "cache repair was removed");
  auto coalesce = small_config(2, Strategy::kDssmr, 2);
  coalesce.coalesce_moves = 4;
  EXPECT_DEATH(deploy(coalesce), "move coalescing was removed");
}

// ---- linearizability with prefetch on ------------------------------

class LocalityLinearizability : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LocalityLinearizability, ConcurrentHistoriesAreLinearizable) {
  constexpr std::size_t kVars = 5;
  auto cfg = locality_config(2, 4);
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  lincheck::KvSpec spec;
  preload_kv(d, kVars, &spec);
  d.start();
  d.settle();
  auto history = record_history(d, /*ops_per_client=*/8, GetParam(), kVars);
  ASSERT_EQ(history.size(), 32u);
  EXPECT_TRUE(lincheck::is_linearizable(history, spec)) << "seed " << GetParam();
  EXPECT_TRUE(d.audit_consistency().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalityLinearizability, ::testing::Values(1, 2, 3, 4, 5));

// Prefetch stays linearizable under every shipped fault plan: stale
// prefetched locations must degrade to retries, never to a consistency
// violation.
class LocalityUnderFaults : public ::testing::TestWithParam<std::string> {};

TEST_P(LocalityUnderFaults, HistoriesUnderPlanAreLinearizable) {
  constexpr std::size_t kVars = 4;
  auto cfg = locality_config(2, 3);
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  lincheck::KvSpec spec;
  preload_kv(d, kVars, &spec);
  d.start();
  d.settle();

  fault::Nemesis nem{d, fault::resolve_plan(GetParam())};
  nem.arm();
  auto history =
      record_history(d, /*ops_per_client=*/8, /*seed=*/23, kVars, /*think=*/msec(250));
  ASSERT_EQ(history.size(), 24u);
  EXPECT_TRUE(lincheck::is_linearizable(history, spec)) << "plan " << GetParam();
  EXPECT_GT(d.metrics().counter("faults.events_injected"), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllShippedPlans, LocalityUnderFaults,
                         ::testing::ValuesIn(shipped_plan_names(false)), plan_param_name);

// ---- determinism and off-by-default purity -----------------------------------

harness::ChirperRunConfig chirper_locality(std::uint64_t seed) {
  harness::ChirperRunConfig cfg;
  cfg.partitions = 2;
  cfg.clients_per_partition = 3;
  cfg.graph = {.n = 300, .m = 2, .p_triad = 0.8};
  cfg.warmup = msec(100);
  cfg.measure = msec(300);
  cfg.seed = seed;
  cfg.prefetch_k = 8;
  return cfg;
}

std::string record_json(const harness::ChirperRunConfig& cfg, const harness::RunResult& r) {
  std::ostringstream os;
  stats::write_run_records(os, "locality_test", {harness::make_run_record(cfg, r)});
  return os.str();
}

TEST(LocalityDeterminism, SameSeedSameRunRecordBytes) {
  const harness::ChirperRunConfig cfg = chirper_locality(77);
  const std::string first = record_json(cfg, harness::run_chirper(cfg));
  const std::string second = record_json(cfg, harness::run_chirper(cfg));
  EXPECT_GT(first.size(), 100u);
  EXPECT_EQ(first, second);
  // The record carries the current schema, the v6 locality section and the
  // prefetch knob, and none of the removed features' meta.
  const std::string schema = "\"schema\": \"" + std::string(stats::kRunRecordSchema) + "\"";
  EXPECT_NE(first.find(schema), std::string::npos);
  EXPECT_NE(first.find("\"locality\""), std::string::npos);
  EXPECT_NE(first.find("\"prefetch_k\": \"8\""), std::string::npos);
  EXPECT_EQ(first.find("cache_repair"), std::string::npos);
  EXPECT_EQ(first.find("coalesce_"), std::string::npos);
}

TEST(LocalityDeterminism, OffRunsCarryNoLocalityArtifacts) {
  harness::ChirperRunConfig cfg = chirper_locality(78);
  cfg.prefetch_k = 0;
  const std::string json = record_json(cfg, harness::run_chirper(cfg));
  EXPECT_EQ(json.find("\"locality\""), std::string::npos);
  EXPECT_EQ(json.find("prefetch"), std::string::npos);
}

// The real off-mode purity bar: a locality-off run record is byte-identical
// to one from a config that predates the locality knobs entirely (the two
// structs differ only in the new default-zero fields).
TEST(LocalityDeterminism, OffModeMatchesPreLocalityRecordBytes) {
  harness::ChirperRunConfig off = chirper_locality(79);
  off.prefetch_k = 0;

  harness::ChirperRunConfig legacy;
  legacy.partitions = off.partitions;
  legacy.clients_per_partition = off.clients_per_partition;
  legacy.graph = off.graph;
  legacy.warmup = off.warmup;
  legacy.measure = off.measure;
  legacy.seed = off.seed;

  const std::string a = record_json(off, harness::run_chirper(off));
  const std::string b = record_json(legacy, harness::run_chirper(legacy));
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace dssmr::core
