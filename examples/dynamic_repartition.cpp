// Dynamic repartitioning demo (the DynaStar-style oracle extension).
//
// The oracle learns the workload graph from hints, periodically recomputes
// an ideal partitioning with the multilevel partitioner, and steers moves
// toward it. The demo drives a clustered workload, then prints how the
// mapping converges and how many moves each phase needed.
//
// Build and run:  ./build/examples/dynamic_repartition
#include <cstdio>

#include "chirper/chirper.h"
#include "core/dynastar_policy.h"
#include "harness/deployment.h"
#include "harness/experiment.h"
#include "workload/chirper_workload.h"

using namespace dssmr;

int main() {
  // Two tight friend-circles of 8 users each, scattered across 2 partitions.
  harness::DeploymentConfig cfg;
  cfg.partitions = 2;
  cfg.replicas_per_partition = 2;
  cfg.clients = 4;
  cfg.strategy = core::Strategy::kDynaStar;

  core::DynaStarPolicy::Config pc;
  pc.repartition_every_hints = 60;
  pc.partitioner.k = 2;
  harness::Deployment d{cfg, chirper::chirper_app_factory(),
                        [pc] { return std::make_unique<core::DynaStarPolicy>(pc); }};

  workload::SocialGraph graph{16};
  for (std::uint64_t c = 0; c < 2; ++c) {
    for (std::uint64_t i = 0; i < 8; ++i) {
      for (std::uint64_t j = i + 1; j < 8; ++j) {
        graph.add_edge(VarId{c * 8 + i}, VarId{c * 8 + j});
      }
    }
  }
  for (std::uint64_t u = 0; u < 16; ++u) {
    chirper::UserValue user;
    user.followers = graph.neighbors(VarId{u});
    user.following = user.followers;
    d.preload_var(VarId{u}, d.partition_gid(u % 2), user);  // deliberately scattered
  }
  d.start();
  d.settle();

  auto count_split_circles = [&] {
    int split = 0;
    for (std::uint64_t c = 0; c < 2; ++c) {
      GroupId first = d.oracle(0).mapping().locate(VarId{c * 8});
      for (std::uint64_t i = 1; i < 8; ++i) {
        if (d.oracle(0).mapping().locate(VarId{c * 8 + i}) != first) {
          ++split;
          break;
        }
      }
    }
    return split;
  };

  std::printf("before: %d of 2 friend-circles are split across partitions\n",
              count_split_circles());

  // Drive posts with hints; the oracle learns, repartitions, and collocates.
  workload::ChirperWorkloadConfig wcfg;
  wcfg.mix = workload::mixes::kPostOnly;
  wcfg.hint_posts = true;
  workload::ChirperWorkload wl{graph, wcfg, 3};
  harness::ClosedLoopDriver driver{d, [&wl] { return wl.next(); }};
  driver.run(/*warmup=*/0, /*measure=*/sec(3));

  std::printf("after %llu commands: %d circles split, %llu repartitionings, %llu moves\n",
              static_cast<unsigned long long>(driver.measured_ok()), count_split_circles(),
              static_cast<unsigned long long>(d.oracle(0).policy().repartition_count()),
              static_cast<unsigned long long>(d.metrics().counter("oracle.moves_issued")));
  std::printf("oracle workload graph: %llu hint edges received\n",
              static_cast<unsigned long long>(d.metrics().counter("oracle.hints")));

  const bool converged = count_split_circles() == 0;
  std::printf("%s\n", converged ? "converged: every circle lives on one partition"
                                : "not fully converged (rerun with a longer drive)");
  return converged ? 0 : 1;
}
