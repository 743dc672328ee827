// E7 — Is the oracle a bottleneck? (DSN'16 cache evaluation + the supplied
// text's "CPU load in the oracle" figure.)
//
// (a) Location cache on vs off: consult volume and throughput.
// (b) Oracle-leader CPU utilization over time: high at the start (cold
//     caches, many moves) and decaying as clients cache locations.
// (c) Oracle load vs number of partitions.
#include "bench_util.h"

namespace {

dssmr::harness::ChirperRunConfig base_config(std::size_t parts) {
  using namespace dssmr;
  harness::ChirperRunConfig cfg = bench::chirper_base(0.01);
  cfg.strategy = core::Strategy::kDssmr;
  cfg.partitions = parts;
  cfg.workload.mix = workload::mixes::kTimelineHeavy;
  cfg.warmup = 0;
  cfg.measure = sec(10);
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dssmr;
  using namespace dssmr::bench;

  RunRecordSink sink(argc, argv, "fig_oracle_load");
  heading("E7: oracle load and the client location cache");

  std::vector<SweepPoint> points;
  for (bool cache : {true, false}) {
    auto cfg = base_config(4);
    cfg.client_cache = cache;
    cfg.warmup = sec(3);
    cfg.measure = sec(3);
    sink.apply(cfg);
    points.push_back({cfg, cache ? "cache-on" : "cache-off"});
  }
  for (std::size_t parts : {2u, 4u, 8u}) {
    auto cfg = base_config(parts);
    sink.apply(cfg);
    points.push_back({cfg, "parts-" + std::to_string(parts)});
  }
  const auto results = run_points(sink, points);

  subheading("(a) cache on vs off, 4 partitions, mixed workload");
  std::printf("%-10s %10s %10s %12s %12s\n", "cache", "tput(cps)", "lat(us)", "consults",
              "cache-hits");
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& r = results[i];
    std::printf("%-10s %10.0f %10.0f %12llu %12llu\n", i == 0 ? "on" : "off",
                r.throughput_cps, r.latency_avg_us,
                static_cast<unsigned long long>(r.counter("client.consults")),
                static_cast<unsigned long long>(r.counter("client.cache_hits")));
  }

  // Table (b) reads the 4-partition run of table (c).
  subheading("(b) oracle-leader CPU utilization over time (4 partitions)");
  {
    const auto& r = results[3];
    std::printf("second:   ");
    for (std::size_t i = 0; i < r.oracle_busy_series.size(); ++i) std::printf(" %5zu", i);
    std::printf("\nbusy(%%):  ");
    for (double b : r.oracle_busy_series) std::printf(" %5.1f", 100.0 * b);
    std::printf("\nconsults total: %llu\n",
                static_cast<unsigned long long>(r.counter("oracle.consults")));
  }

  subheading("(c) oracle load vs partitions");
  std::printf("%6s %12s %14s %12s\n", "parts", "tput(cps)", "consults/s", "peak-busy%");
  for (std::size_t i = 2; i < points.size(); ++i) {
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
