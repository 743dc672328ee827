// E6 — Varying edge-cut sweep (the supplied text's "throughput and latency,
// varying edge-cuts for different partitioning sizes" figure).
//
// Edge-cut {0, 1, 5, 10}% x partitions {2, 4, 8} x strategies. Expected
// shape: at 0% everything scales; throughput decays as the cut grows; around
// 10% the move/coordination overhead cancels the benefit of extra
// partitions.
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace dssmr;
  using namespace dssmr::bench;
  using core::Strategy;
  using harness::ChirperRunConfig;
  using harness::Placement;

  RunRecordSink sink(argc, argv, "fig_edge_cut_sweep");
  heading("E6: throughput/latency vs edge-cut percentage");

  struct Case {
    Strategy strategy;
    Placement placement;
    const char* label;
  };
  const Case kCases[] = {
      {Strategy::kStaticSsmr, Placement::kMetis, "S-SMR/optimized"},
      {Strategy::kDssmr, Placement::kHash, "DS-SMR"},
  };

  std::vector<SweepPoint> points;
  for (double cut : {0.0, 0.01, 0.05, 0.10}) {
    for (std::size_t parts : {2u, 4u, 8u}) {
      for (const auto& c : kCases) {
        ChirperRunConfig cfg = chirper_base(cut);
        cfg.strategy = c.strategy;
        cfg.placement = c.placement;
        cfg.partitions = parts;
        cfg.workload.mix = workload::mixes::kPostOnly;
        cfg.warmup = sec(4);
        cfg.measure = sec(2);
        sink.apply(cfg);
        points.push_back({cfg, std::string(c.label) + "/cut" + percent(cut) + "/p" +
                                   std::to_string(parts)});
      }
    }
  }
  const auto results = run_points(sink, points);

  std::size_t i = 0;
  for (double cut : {0.0, 0.01, 0.05, 0.10}) {
    subheading("edge cut " + percent(cut) + "%");
    print_run_header();
    for (std::size_t parts : {2u, 4u, 8u}) {
      for (const auto& c : kCases) print_run_row(c.label, parts, results[i++]);
    }
  }
  return sink.finish();
}
