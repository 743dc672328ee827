// E4 and E5 — Convergence under strong and weak locality (motivation figure:
// throughput and moves over time, left column on a perfectly partitionable
// workload, right column when the state is NOT perfectly partitionable).
//
// Post-only mix over communities with 0% (E4) and 5% (E5) cross edges,
// hash-scattered initial placement, 4 partitions.
//
// E4's expected shape: the "perfect static" scheme (optimized placement, no
// moves) runs at peak from t=0; DS-SMR starts low and climbs as moves
// collocate communities, then moves drop to ~0.
//
// E5's expected shape: DS-SMR keeps moving variables back and forth — the
// moves series never dries up and throughput stays unstable/depressed; the
// optimized static scheme is steady but pays for cross-partition posts.
#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace dssmr;
  using namespace dssmr::bench;
  using core::Strategy;
  using harness::ChirperRunConfig;
  using harness::Placement;

  RunRecordSink sink(argc, argv, "fig_convergence");

  struct Section {
    double cut;
    const char* title;
    const char* static_label;  // distinct per section, so it needs no cut suffix
  };
  const Section kSections[] = {
      {0.0, "E4: throughput & moves over time, STRONG locality (0% edge cut), 4 partitions",
       "perfect-static"},
      {0.05, "E5: throughput & moves over time, WEAK locality (5% edge cut), 4 partitions",
       "optimized-static"},
  };
  struct Case {
    Strategy strategy;
    Placement placement;
    const char* label;  // nullptr: the section's static_label
  };
  const Case kCases[] = {
      {Strategy::kStaticSsmr, Placement::kMetis, nullptr},
      {Strategy::kDssmr, Placement::kHash, "DS-SMR"},
  };

  std::vector<SweepPoint> points;
  for (const auto& s : kSections) {
    for (const auto& c : kCases) {
      ChirperRunConfig cfg = chirper_base(s.cut);
      cfg.strategy = c.strategy;
      cfg.placement = c.placement;
      cfg.partitions = 4;
      cfg.workload.mix = workload::mixes::kPostOnly;
      cfg.warmup = 0;
      cfg.measure = sec(12);
      sink.apply(cfg);
      points.push_back({cfg, c.label == nullptr
                                 ? std::string(s.static_label)
                                 : std::string(c.label) + "/cut" + percent(s.cut)});
    }
  }
  const auto results = run_points(sink, points);

  std::size_t i = 0;
  for (const auto& s : kSections) {
    heading(s.title);
    for (const auto& c : kCases) {
      const auto& r = results[i++];
      subheading(c.label == nullptr ? s.static_label : c.label);
      print_series("tput(cps) ", r.tput_series);
      print_series("moves/s   ", r.moves_series);
      if (s.cut > 0) {  // weak locality: retries and fallbacks keep accruing
        std::printf("total moves: %llu, retries: %llu, fallbacks: %llu\n",
                    static_cast<unsigned long long>(r.counter("client.moves")),
                    static_cast<unsigned long long>(r.counter("client.retries")),
                    static_cast<unsigned long long>(r.counter("client.fallbacks")));
      } else {
        std::printf("total moves: %llu\n",
                    static_cast<unsigned long long>(r.counter("client.moves")));
      }
    }
  }
  return sink.finish();
}
