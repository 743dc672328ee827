// Locality fast path: prophecy prefetch — functional behavior (prefetch
// installs warm the cache and later commands skip the oracle, a prefetch hit
// is credited only to a location the prefetch supplied), the windowed cache
// gauges,
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

/// Issues `cmd` from client `ci` without waiting; `*done` flips when it ends.
void issue_op(Deployment& d, std::size_t ci, smr::Command cmd, bool* done) {
  d.client(ci).issue(std::move(cmd), [done](smr::ReplyCode, const net::MessagePtr&) {
    *done = true;
  });
}

/// Runs the engine in 1 ms steps until `pred` holds (bounded by `max_wait`).
template <class Pred>
void run_until_true(Deployment& d, Pred pred, Duration max_wait = sec(5)) {
  const Time deadline = d.engine().now() + max_wait;
  while (!pred() && d.engine().now() < deadline) {
    d.engine().run_until(d.engine().now() + msec(1));
  }
  ASSERT_TRUE(pred()) << "condition not reached in time";
}

TEST(Prefetch, EntryRelearnedAfterARetryIsNotAPrefetchHit) {
  auto cfg = locality_config(2, 2);
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  preload_kv(d, 8);  // even vars on partition 0, odd on partition 1
  d.start();
  d.settle();

  // Client 1 learns var 2 from a prefetch: {0,2,4} were co-accessed.
  EXPECT_EQ(run_op(d, 0, kv_sum({VarId{0}, VarId{2}}, VarId{4})), smr::ReplyCode::kOk);
  EXPECT_EQ(run_op(d, 1, kv_get(VarId{0})), smr::ReplyCode::kOk);
  ASSERT_EQ(d.client(1).cached_location(VarId{2}), d.partition_gid(0));

  // Client 1's next command needs var 6 too, so it consults; its send to
  // partition 0 is lost while client 0 moves vars 2 and 6 to partition 1
  // (most-held). The re-sent command gets a retry, which erases the cached
  // entries, and the ordered re-consult learns both on partition 1.
  const std::uint64_t retries = d.metrics().counter("client.retries");
  for (std::size_t r = 0; r < cfg.replicas_per_partition; ++r) {
    d.network().set_link(d.client(1).pid(), d.server(0, r).pid(), false);
  }
  bool done = false;
  issue_op(d, 1, kv_sum({VarId{2}}, VarId{6}), &done);
  d.engine().run_until(d.engine().now() + msec(20));
  ASSERT_FALSE(done);
  EXPECT_EQ(run_op(d, 0, kv_sum({VarId{1}, VarId{3}, VarId{5}, VarId{2}}, VarId{6})),
            smr::ReplyCode::kOk);
  for (std::size_t r = 0; r < cfg.replicas_per_partition; ++r) {
    d.network().set_link(d.client(1).pid(), d.server(0, r).pid(), true);
  }
  run_until_true(d, [&] { return done; });
  ASSERT_GT(d.metrics().counter("client.retries"), retries);
  ASSERT_EQ(d.client(1).cached_location(VarId{2}), d.partition_gid(1));

  // A cache hit on the re-learned entry is not a prefetch hit.
  const std::uint64_t hits = d.metrics().counter("client.cache_hits");
  const std::uint64_t prefetch_hits = d.metrics().counter("locality.prefetch_hits");
  EXPECT_EQ(run_op(d, 1, kv_get(VarId{2})), smr::ReplyCode::kOk);
  EXPECT_EQ(d.metrics().counter("client.cache_hits"), hits + 1);
  EXPECT_EQ(d.metrics().counter("locality.prefetch_hits"), prefetch_hits);
}

TEST(LocalityTelemetry, WindowHitRateCoversTheLastTickOnly) {
  auto cfg = locality_config(2, 2);
  cfg.telemetry = true;
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  preload_kv(d, 8);
  d.start();
  d.settle();
  const stats::Recorder& rec = d.metrics().recorder();
  const auto gauge = [&rec](const std::string& name) -> const std::vector<double>& {
    for (const stats::Recorder::Gauge& g : rec.gauges()) {
      if (g.name == name) return g.values;
    }
    ADD_FAILURE() << "no gauge " << name;
    static const std::vector<double> none;
    return none;
  };
  const auto next_tick = [&] {
    const std::size_t ticks = rec.tick_times().size();
    run_until_true(d, [&] { return rec.tick_times().size() > ticks; });
  };

  // One window of cache hits: client 0 consults once, then hits ten times.
  next_tick();
  for (int i = 0; i < 11; ++i) EXPECT_EQ(run_op(d, 0, kv_get(VarId{0})), smr::ReplyCode::kOk);
  next_tick();
  EXPECT_DOUBLE_EQ(gauge("locality.window_hit_rate").back(), 10.0 / 11.0);
  EXPECT_DOUBLE_EQ(gauge("locality.consult_rate").back(), 1.0 / 11.0);

  // The next window holds only first touches: every decision is a consult,
  // whatever the run did before.
  for (std::size_t v = 1; v < 6; ++v) {
    EXPECT_EQ(run_op(d, 1, kv_get(VarId{v})), smr::ReplyCode::kOk);
  }
  next_tick();
  EXPECT_DOUBLE_EQ(gauge("locality.window_hit_rate").back(), 0.0);
  EXPECT_DOUBLE_EQ(gauge("locality.consult_rate").back(), 1.0);
  EXPECT_GT(gauge("client_cache.hit_rate").back(), 0.0);
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
