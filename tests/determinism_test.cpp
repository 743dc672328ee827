// End-to-end determinism guarantees the perf work must not break:
//   1. the same config + seed produces byte-identical run-record JSON on
//      repeated runs in one process, and
//   2. the parallel sweep runner (harness/sweep.h) produces results identical
//      to a serial sweep, independent of thread count and scheduling.
// Together these back the benches' promise that `--jobs N` output is
// byte-for-byte the same as a serial run.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/sweep.h"
#include "stats/run_record.h"

namespace dssmr::harness {
namespace {

ChirperRunConfig small_config(std::uint64_t seed) {
  ChirperRunConfig cfg;
  cfg.partitions = 2;
  cfg.clients_per_partition = 3;
  cfg.graph = {.n = 300, .m = 2, .p_triad = 0.8};
  cfg.warmup = msec(100);
  cfg.measure = msec(300);
  cfg.seed = seed;
  return cfg;
}

std::string record_json(const ChirperRunConfig& cfg, const RunResult& r) {
  std::ostringstream os;
  stats::write_run_records(os, "determinism_test", {make_run_record(cfg, r)});
  return os.str();
}

TEST(Determinism, SameSeedSameRunRecordBytes) {
  const ChirperRunConfig cfg = small_config(77);
  const std::string first = record_json(cfg, run_chirper(cfg));
  const std::string second = record_json(cfg, run_chirper(cfg));
  EXPECT_GT(first.size(), 100u);
  EXPECT_EQ(first, second);
}

TEST(Determinism, DifferentSeedsActuallyDiffer) {
  // Guards against the identity test above passing vacuously (e.g. the seed
  // being ignored and every run producing the same canned output).
  const ChirperRunConfig a = small_config(77);
  const ChirperRunConfig b = small_config(78);
  EXPECT_NE(record_json(a, run_chirper(a)), record_json(b, run_chirper(b)));
}

TEST(Determinism, ParallelSweepMatchesSerial) {
  std::vector<ChirperRunConfig> cfgs;
  for (std::uint64_t s = 90; s < 94; ++s) cfgs.push_back(small_config(s));
  // Telemetry on: each deployment samples its own gauges on its sweep thread,
  // and the record's telemetry section must match too.
  cfgs.push_back(small_config(94));
  cfgs.back().telemetry = true;

  const std::vector<RunResult> serial = run_sweep(cfgs, 1);
  const std::vector<RunResult> parallel = run_sweep(cfgs, 4);
  ASSERT_EQ(serial.size(), parallel.size());

  for (std::size_t i = 0; i < serial.size(); ++i) {
    // Full-strength check: the serialized run records (every counter,
    // histogram bucket, time series and telemetry sample) must match
    // byte-for-byte.
    EXPECT_EQ(record_json(cfgs[i], serial[i]), record_json(cfgs[i], parallel[i]))
        << "sweep point " << i << " diverged between serial and --jobs 4";
  }
}

TEST(Determinism, ParallelMapPreservesSubmissionOrder) {
  const auto out = parallel_map(16, 4, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 16u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(Determinism, ParallelForPropagatesFirstException) {
  EXPECT_THROW(
      parallel_for(8, 4,
                   [](std::size_t i) {
                     if (i == 3) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

}  // namespace
}  // namespace dssmr::harness
