// E10 — Elastic scale-out: live partition add with state transfer.
//
// A DS-SMR chirper deployment starts at 2 partitions, driven to saturation
// by a fixed client population. Mid-run the nemesis boots a third partition;
// the oracle admits it through an atomically multicast membership record and
// rebalances variables onto it with chunked bulk moves while clients keep
// executing. Expected shape: throughput plateaus at the 2-partition capacity,
// dips briefly during the rebalance window (move churn), then settles above
// the pre-scale plateau once a third of the load lives on the new partition.
//
// The plan is --nemesis (default add-partition@3s); the run extends to the
// plan's last event + 8s so late events still show their post-scale plateau.
#include <algorithm>

#include "bench_util.h"
#include "fault/fault_plan.h"

int main(int argc, char** argv) {
  using namespace dssmr;
  using namespace dssmr::bench;

  RunRecordSink sink(argc, argv, "fig_elastic_scaleout");
  heading("E10: elastic scale-out — live partition add + rebalance, 2 partitions + 1");

  const std::string& flag_plan = sink.options().nemesis;
  const std::string plan_spec = flag_plan.empty() ? "add-partition@3s" : flag_plan;
  const fault::FaultPlan plan = fault::resolve_plan(plan_spec);
  const Duration last_event = plan.events.back().at;

  harness::ChirperRunConfig cfg;
  cfg.strategy = core::Strategy::kDssmr;
  cfg.placement = harness::Placement::kMetis;
  cfg.partitions = 2;
  cfg.clients_per_partition = 48;  // saturates 2 partitions, so capacity shows
  cfg.graph = {.n = 2048, .m = 2, .p_triad = 0.8};
  cfg.workload.mix = workload::mixes::kPostOnly;
  cfg.warmup = 0;
  cfg.measure = std::max(last_event + sec(8), sec(12));
  cfg.seed = 42;
  sink.apply(cfg);
  cfg.nemesis = plan_spec;

  const std::vector<SweepPoint> points = {{cfg, "elastic"}};
  const auto results = run_points(sink, points);
  const harness::RunResult& r = results[0];

  subheading("plan: " + plan_spec);
  print_series("tput(cps) ", r.tput_series);
  print_series("moves/s   ", r.moves_series);

  // Pre-scale plateau vs post-rebalance plateau: mean of the two seconds
  // before the first event vs the last two full seconds of the run.
  const auto sec_of = [](Duration t) { return static_cast<std::size_t>(t / sec(1)); };
  const std::size_t first_ev = sec_of(plan.events.front().at);
  const std::size_t total = r.tput_series.size();
  double pre = 0.0;
  double post = 0.0;
  if (first_ev >= 1 && total >= 3) {
    const std::size_t pre_n = std::min<std::size_t>(first_ev, 2);
    for (std::size_t i = first_ev - pre_n; i < first_ev; ++i) pre += r.tput_series[i];
    pre /= static_cast<double>(pre_n);
    for (std::size_t i = total - 3; i < total - 1; ++i) post += r.tput_series[i];
    post /= 2.0;
  }
  std::printf("\npre-scale plateau:  %8.0f cps (mean of the %zu s before the first event)\n",
              pre, std::min<std::size_t>(first_ev, 2));
  std::printf("post-scale plateau: %8.0f cps (mean of the last 2 full seconds)\n", post);
  std::printf("partitions added: %llu, retired: %llu, rebalance moves: %llu "
              "(%llu variables shipped)\n",
              static_cast<unsigned long long>(r.counter("elastic.partitions_added")),
              static_cast<unsigned long long>(r.counter("elastic.partitions_retired")),
              static_cast<unsigned long long>(r.counter("elastic.rebalance_moves")),
              static_cast<unsigned long long>(r.counter("elastic.rebalance_vars")));
  return sink.finish();
}
