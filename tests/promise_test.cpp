// The deterministic promises of the paper's mechanisms, each as an on/off
// pair of Chirper runs on the same config and seed:
//   * prophecy prefetch cuts oracle consults per command by >= 2x, and
//     costs neither simulator events nor committed throughput;
//   * a live partition add inside warmup keeps >= 95% of the no-plan
//     steady-state throughput.
// Every ratio is a function of the seed alone, so each bound is an exact
// gate, not a timing band. Each test records the ratio it saw as a gtest
// property (`promise_test --gtest_output=json:<path>` writes them out).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "harness/experiment.h"

namespace dssmr::harness {
namespace {

// The small deployment every pair starts from: 2 partitions of 4 clients on
// a 512-user graph at a 1% cut, 200 ms warmup and 400 ms measured.
ChirperRunConfig small_chirper() {
  ChirperRunConfig cfg;
  cfg.partitions = 2;
  cfg.clients_per_partition = 4;
  cfg.graph = {.n = 512, .m = 2, .p_triad = 0.8};
  cfg.use_controlled_cut = true;
  cfg.controlled_edge_cut = 0.01;
  cfg.workload.mix = workload::mixes::kTimelineHeavy;
  cfg.warmup = msec(200);
  cfg.measure = msec(400);
  cfg.seed = 42;
  return cfg;
}

double per_command(const RunResult& r, std::uint64_t n) {
  const std::uint64_t ops = r.counter("client.ops");
  EXPECT_GT(ops, 0u);
  return static_cast<double>(n) / static_cast<double>(ops);
}

double events_per_command(const RunResult& r) { return per_command(r, r.events_executed); }

double consults_per_command(const RunResult& r) {
  return per_command(r, r.counter("client.consults"));
}

void record(const char* key, double value) {
  ::testing::Test::RecordProperty(key, std::to_string(value));
}

// Post-only on a larger METIS-placed graph, so clients pay real cold
// consults and cross-partition commands trigger moves and retries: the
// traffic prefetch exists to absorb.
TEST(Promise, PrefetchCutsConsultsAtNoCost) {
  auto cfg = small_chirper();
  cfg.graph = {.n = 1024, .m = 2, .p_triad = 0.8};
  cfg.placement = Placement::kMetis;
  cfg.workload.mix = workload::mixes::kPostOnly;
  cfg.workload.zipf_theta = 0.8;
  const RunResult off = run_chirper(cfg);

  cfg.prefetch_k = 64;
  const RunResult on = run_chirper(cfg);

  EXPECT_GT(on.counter("locality.prefetch_hits"), 0u);
  const double consult_ratio = consults_per_command(off) / consults_per_command(on);
  const double event_ratio = events_per_command(off) / events_per_command(on);
  const double throughput_ratio = on.throughput_cps / off.throughput_cps;
  record("consult_ratio", consult_ratio);
  record("event_ratio", event_ratio);
  record("throughput_ratio", throughput_ratio);
  EXPECT_GE(consult_ratio, 2.0);
  EXPECT_GE(event_ratio, 1.0);
  EXPECT_GE(throughput_ratio, 1.0);
}

// The add lands inside warmup, so by the time the measured window opens the
// chunked rebalance has settled: the pair compares steady states, not the
// rebalance transient.
TEST(Promise, PartitionAddKeepsThroughput) {
  auto cfg = small_chirper();
  cfg.clients_per_partition = 8;
  const RunResult off = run_chirper(cfg);

  cfg.nemesis = "add-partition@50ms";
  const RunResult on = run_chirper(cfg);

  EXPECT_EQ(on.counter("elastic.partitions_added"), 1u);
  const double throughput_ratio = on.throughput_cps / off.throughput_cps;
  record("throughput_ratio", throughput_ratio);
  EXPECT_GE(throughput_ratio, 0.95);
}

}  // namespace
}  // namespace dssmr::harness
