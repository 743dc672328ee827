// E1 — Throughput scalability (DSN'16 Chirper scalability figure), plus the
// E2 latency tables and E3 latency CDFs, which the paper takes from the same
// sweep and so are printed from the same runs, and E7's oracle-load tables,
// whose cache-on run is E1's DS-SMR run on Mix at 4 partitions.
//
// Chirper on a Holme-Kim social graph; partitions 1/2/4/8; strategies:
// S-SMR with naive hash placement, S-SMR with optimized (metis-style)
// placement, and DS-SMR (hash initial placement). One table per command mix.
//
// Expected shape (the paper's): everything scales on Timeline (reads are
// always single-partition); on Post and Mix, S-SMR/hash collapses under
// multi-partition commands, the optimized static placement does much better,
// and DS-SMR approaches the optimized static scheme by moving co-accessed
// users together.
//
// E2 (DSN'16 latency figure): average and tail latency per strategy on Post
// and Mix, partitions 2 and 8. Single-partition workloads keep latency flat
// as partitions grow; multi-partition commands inflate S-SMR/hash sharply
// (every involved partition blocks on the slowest); DS-SMR pays moves during
// convergence but settles near the optimized static scheme.
//
// E3 (DSN'16 latency-distribution figure): post-only, 4 partitions. S-SMR/hash
// has a fat tail (multi-partition coordination on most posts); DS-SMR is
// bimodal — fast single-partition executions plus a move/retry tail; the
// optimized static scheme sits between.
//
// E7 (DSN'16 cache evaluation + the supplied text's "CPU load in the oracle"
// figure): is the oracle a bottleneck? DS-SMR on Mix.
// (a) Location cache on vs off: consult volume and throughput.
// (b) Oracle-leader CPU utilization over time: high at the start (cold
//     caches, many moves) and decaying as clients cache locations.
// (c) Oracle load vs number of partitions.
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace dssmr;
  using namespace dssmr::bench;
  using harness::ChirperRunConfig;
  using harness::Placement;
  using core::Strategy;

  RunRecordSink sink(argc, argv, "fig_throughput_scalability");
  heading("E1: Chirper throughput scalability (paper: DS-SMR vs S-SMR)");

  const workload::ChirperMix kMixes[] = {workload::mixes::kTimelineOnly,
                                         workload::mixes::kPostOnly,
                                         workload::mixes::kTimelineHeavy};
  const std::size_t kParts[] = {1, 2, 4, 8};
  struct StrategyCase {
    Strategy strategy;
    Placement placement;
    const char* label;
  };
  const StrategyCase kCases[] = {
      {Strategy::kStaticSsmr, Placement::kHash, "S-SMR/hash"},
      {Strategy::kStaticSsmr, Placement::kMetis, "S-SMR/optimized"},
      {Strategy::kDssmr, Placement::kHash, "DS-SMR"},
  };

  std::vector<SweepPoint> points;
  for (const auto& mix : kMixes) {
    for (std::size_t parts : kParts) {
      for (const auto& c : kCases) {
        // Community-structured social graph with 1% cross-community edges —
        // the realistic mostly-partitionable regime the paper's social
        // graphs exhibit (weak-locality sweeps are E5/E6).
        ChirperRunConfig cfg = chirper_base(0.01);
        cfg.strategy = c.strategy;
        cfg.placement = c.placement;
        cfg.partitions = parts;
        cfg.workload.mix = mix;
        cfg.warmup = sec(3);
        cfg.measure = sec(3);
        sink.apply(cfg);
        points.push_back({cfg, std::string(c.label) + "/" + mix_name(mix) + "/p" +
                                   std::to_string(parts)});
      }
    }
  }
  // E7's own runs, after E1's: the cache-off twin of E1's DS-SMR/Mix/p4 run,
  // then 2, 4 and 8 partitions with no warmup over 10 s, so the oracle's busy
  // series starts cold.
  const std::size_t e7_first = points.size();
  const auto e7_config = [](std::size_t parts) {
    ChirperRunConfig cfg = chirper_base(0.01);
    cfg.strategy = Strategy::kDssmr;
    cfg.partitions = parts;
    cfg.workload.mix = workload::mixes::kTimelineHeavy;
    cfg.warmup = 0;
    cfg.measure = sec(10);
    return cfg;
  };
  {
    ChirperRunConfig cfg = e7_config(4);
    cfg.client_cache = false;
    cfg.warmup = sec(3);
    cfg.measure = sec(3);
    sink.apply(cfg);
    points.push_back({cfg, "E7/cache-off"});
  }
  for (std::size_t parts : {2u, 4u, 8u}) {
    ChirperRunConfig cfg = e7_config(parts);
    sink.apply(cfg);
    points.push_back({cfg, "E7/parts-" + std::to_string(parts)});
  }
  const auto results = run_points(sink, points);
  // The run of mix kMixes[m], kParts[k] partitions and case kCases[c].
  const auto result = [&](std::size_t m, std::size_t k, std::size_t c) -> const auto& {
    return results[(m * std::size(kParts) + k) * std::size(kCases) + c];
  };
  // One table: mix kMixes[m] at the partition counts kParts[k], k in `ks`.
  const auto print_table = [&](std::size_t m, std::initializer_list<std::size_t> ks) {
    subheading(std::string("workload mix: ") + mix_name(kMixes[m]));
    print_run_header();
    for (std::size_t k : ks) {
      for (std::size_t c = 0; c < std::size(kCases); ++c) {
        print_run_row(kCases[c].label, kParts[k], result(m, k, c));
      }
    }
  };

  for (std::size_t m = 0; m < std::size(kMixes); ++m) print_table(m, {0, 1, 2, 3});
  std::printf("\n(paper shape: near-linear scaling when commands are single-partition;\n"
              " multi-partition commands flatten S-SMR/hash; DS-SMR tracks the\n"
              " optimized static placement once converged)\n");

  // E2 and E3 read Post (kMixes[1]) and Mix (kMixes[2]) at 2, 4 and 8
  // partitions (kParts[1..3]).
  heading("E2: Chirper latency (avg / p50 / p95 / p99, microseconds)");
  for (std::size_t m : {1, 2}) print_table(m, {1, 3});
  std::printf("\n(paper shape: moves and cross-partition coordination dominate the tail;\n"
              " DS-SMR's average approaches the optimized static placement)\n");

  heading("E3: Chirper latency CDF, post-only mix, 4 partitions");
  for (std::size_t c = 0; c < std::size(kCases); ++c) {
    subheading(kCases[c].label);
    std::printf("%10s %10s\n", "lat(us)", "cdf");
    for (const auto& [value, fraction] : result(1, 2, c).latency_hist.cdf(16)) {
      std::printf("%10lld %10.4f\n", static_cast<long long>(value), fraction);
    }
  }

  heading("E7: oracle load and the client location cache");
  subheading("(a) cache on vs off, 4 partitions, mixed workload");
  std::printf("%-10s %10s %10s %12s %12s\n", "cache", "tput(cps)", "lat(us)", "consults",
              "cache-hits");
  // "on" is E1's DS-SMR run on Mix (kMixes[2], kCases[2]) at 4 partitions.
  const std::pair<const char*, const harness::RunResult&> cache_rows[] = {
      {"on", result(2, 2, 2)}, {"off", results[e7_first]}};
  for (const auto& [cache, r] : cache_rows) {
    std::printf("%-10s %10.0f %10.0f %12llu %12llu\n", cache, r.throughput_cps,
                r.latency_avg_us, static_cast<unsigned long long>(r.counter("client.consults")),
                static_cast<unsigned long long>(r.counter("client.cache_hits")));
  }

  // Table (b) reads the 4-partition run of table (c).
  subheading("(b) oracle-leader CPU utilization over time (4 partitions)");
  {
    const auto& r = results[e7_first + 2];
    std::printf("second:   ");
    for (std::size_t i = 0; i < r.oracle_busy_series.size(); ++i) std::printf(" %5zu", i);
    std::printf("\nbusy(%%):  ");
    for (double b : r.oracle_busy_series) std::printf(" %5.1f", 100.0 * b);
    std::printf("\nconsults total: %llu\n",
                static_cast<unsigned long long>(r.counter("oracle.consults")));
  }

  subheading("(c) oracle load vs partitions");
  std::printf("%6s %12s %14s %12s\n", "parts", "tput(cps)", "consults/s", "peak-busy%");
  for (std::size_t i = e7_first + 1; i < points.size(); ++i) {
    const auto& r = results[i];
    double peak = 0;
    for (double b : r.oracle_busy_series) peak = std::max(peak, b);
    std::printf("%6zu %12.0f %14.0f %12.1f\n", points[i].cfg.partitions, r.throughput_cps,
                static_cast<double>(r.counter("oracle.consults")) /
                    to_seconds(points[i].cfg.measure),
                100.0 * peak);
  }
  std::printf("\n(paper shape: load spikes early, then the cache absorbs consults and the\n"
              " oracle stays far from saturation)\n");
  return sink.finish();
}
