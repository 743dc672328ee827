// Experiment-harness smoke tests: tiny versions of the benchmark runs.
#include "harness/experiment.h"

#include <gtest/gtest.h>

#include <numeric>
#include <sstream>

namespace dssmr::harness {
namespace {

ChirperRunConfig tiny(core::Strategy strategy, std::size_t partitions) {
  ChirperRunConfig cfg;
  cfg.strategy = strategy;
  cfg.partitions = partitions;
  cfg.clients_per_partition = 3;
  cfg.graph = {.n = 300, .m = 2, .p_triad = 0.8};
  cfg.workload.mix = workload::mixes::kPostOnly;
  cfg.warmup = msec(600);
  cfg.measure = sec(1);
  cfg.seed = 5;
  return cfg;
}

TEST(Experiment, PreparedWorkloadMetisBeatsHash) {
  auto cfg = tiny(core::Strategy::kDssmr, 4);
  cfg.placement = Placement::kHash;
  const double hash_cut = prepare_workload(cfg).edge_cut_fraction;
  cfg.placement = Placement::kMetis;
  const double metis_cut = prepare_workload(cfg).edge_cut_fraction;
  EXPECT_LT(metis_cut, hash_cut);
  EXPECT_GT(hash_cut, 0.5);  // hash placement cuts most edges of a social graph
}

TEST(Experiment, DssmrRunCompletesAndMeasures) {
  auto r = run_chirper(tiny(core::Strategy::kDssmr, 2));
  EXPECT_GT(r.throughput_cps, 100.0);
  EXPECT_GT(r.latency_avg_us, 0.0);
  EXPECT_GT(r.ok, 0u);
  EXPECT_GT(r.counter("moves.total"), 0u);
  EXPECT_FALSE(r.tput_series.empty());
}

TEST(Experiment, SsmrStaticRunCompletes) {
  auto cfg = tiny(core::Strategy::kStaticSsmr, 2);
  cfg.placement = Placement::kMetis;
  auto r = run_chirper(cfg);
  EXPECT_GT(r.throughput_cps, 100.0);
  EXPECT_EQ(r.counter("moves.total"), 0u);
  EXPECT_EQ(r.counter("client.consults"), 0u);
}

TEST(Experiment, DynaStarRunCompletes) {
  auto cfg = tiny(core::Strategy::kDynaStar, 2);
  cfg.workload.hint_posts = true;
  cfg.dynastar_hint_threshold = 500;
  auto r = run_chirper(cfg);
  EXPECT_GT(r.throughput_cps, 100.0);
  EXPECT_GT(r.counter("oracle.hints"), 0u);
}

TEST(Experiment, DssmrMovesSubsideOnPartitionableWorkload) {
  // Strong locality (perfectly partitionable communities): the scattered
  // neighbourhoods collocate and moves dry up.
  auto cfg = tiny(core::Strategy::kDssmr, 2);
  cfg.use_controlled_cut = true;
  cfg.controlled_edge_cut = 0.0;
  cfg.placement = Placement::kMetis;
  cfg.warmup = sec(2);
  cfg.measure = sec(2);
  cfg.trace = true;
  auto r = run_chirper(cfg);
  const auto& m = r.moves_series;
  ASSERT_GE(m.size(), 4u);
  const double early = m[0] + m[1];
  const double late = m[m.size() - 2] + m[m.size() - 1];
  EXPECT_LT(late, early * 0.5 + 10.0);

  // The event trace agrees with the counters, and under strong locality the
  // retry budget is never exhausted — the S-SMR fallback must not fire.
  const stats::SpanStore& t = r.metrics.spans();
  EXPECT_GT(t.count(stats::InstantKind::kConsult), 0u);
  EXPECT_EQ(t.count(stats::InstantKind::kConsult), r.counter("client.consults"));
  EXPECT_EQ(t.count(stats::InstantKind::kMoveIssued), r.counter("client.moves"));
  EXPECT_EQ(t.count(stats::InstantKind::kFallback), 0u);
}

TEST(Experiment, RunRecordSerializesToJson) {
  auto cfg = tiny(core::Strategy::kDssmr, 2);
  cfg.trace = true;
  auto r = run_chirper(cfg);
  std::vector<stats::RunRecord> runs;
  runs.push_back(make_run_record(cfg, r, "tiny"));
  std::ostringstream os;
  stats::write_run_records(os, "experiment_test", runs);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\": \"dssmr.run_record.v7\""), std::string::npos);
  EXPECT_NE(json.find("\"experiment\": \"experiment_test\""), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"tiny\""), std::string::npos);
  EXPECT_NE(json.find("\"client.ops\""), std::string::npos);
  EXPECT_NE(json.find("\"client.latency_us\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  EXPECT_NE(json.find("\"cdf\""), std::string::npos);
  EXPECT_NE(json.find("\"client.completions\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\""), std::string::npos);
  EXPECT_NE(json.find("\"move_issued\""), std::string::npos);
}

TEST(Experiment, ThroughputScalesWithPartitionsOnPartitionableWorkload) {
  auto one = tiny(core::Strategy::kDssmr, 1);
  auto four = tiny(core::Strategy::kDssmr, 4);
  one.use_controlled_cut = four.use_controlled_cut = true;
  one.controlled_edge_cut = four.controlled_edge_cut = 0.0;
  one.placement = four.placement = Placement::kMetis;
  four.warmup = sec(2);
  auto r1 = run_chirper(one);
  auto r4 = run_chirper(four);
  EXPECT_GT(r4.throughput_cps, 1.5 * r1.throughput_cps)
      << "1p=" << r1.throughput_cps << " 4p=" << r4.throughput_cps;
}

}  // namespace
}  // namespace dssmr::harness
