// E8 — Dynamic workloads (the supplied text's "adding nodes and
// repartitioning dynamically" figure).
//
// The system starts empty. Clients continuously create users, follow each
// other (friend-of-friend biased, so communities emerge) and post. The DS-SMR
// oracle places each new user on the least-loaded partition, and the
// placement then improves only through the clients' per-command moves.
// Expected shape: throughput climbs as the moves collocate the emerging
// communities.
#include <optional>

#include "bench_util.h"
#include "chirper/chirper.h"
#include "fault/nemesis.h"
#include "workload/chirper_workload.h"

namespace {

using namespace dssmr;

/// Generator with two phases: (1) grow the network — create users and follow
/// friend-of-friend until the target size and degree are reached; (2) drive
/// posts over the grown graph. Keeping the graph fixed in phase 2 makes the
/// placement-improvement effect visible (otherwise ever-growing post fan-out
/// masks it).
class GrowingWorkload {
 public:
  GrowingWorkload(std::size_t target_users, std::size_t target_edges, std::uint64_t seed)
      : target_(target_users),
        target_edges_(target_edges),
        graph_(target_users),
        rng_(seed) {}

  smr::Command next() {
    if (created_ < target_ && (created_ < 64 || rng_.chance(0.4))) {
      smr::Command c;
      c.type = smr::CommandType::kCreate;
      c.write_set = {VarId{created_++}};
      return c;
    }
    if (graph_.edge_count() < target_edges_ || created_ < target_) {
      // Follow, friend-of-friend biased.
      const VarId u = VarId{rng_.below(created_)};
      VarId v = u;
      const auto& nbrs = graph_.neighbors(u);
      if (!nbrs.empty() && rng_.chance(0.8)) {
        const VarId w = nbrs[rng_.below(nbrs.size())];
        const auto& second = graph_.neighbors(w);
        if (!second.empty()) v = second[rng_.below(second.size())];
      } else {
        v = VarId{rng_.below(created_)};
      }
      if (v != u && v.value < created_ && !graph_.connected(u, v)) {
        graph_.add_edge(u, v);
        return chirper::make_follow(u, v);
      }
    }
    const VarId u = VarId{rng_.below(created_)};
    return chirper::make_post(u, graph_.neighbors(u), "growing up");
  }

 private:
  std::uint64_t target_;
  std::size_t target_edges_;
  std::uint64_t created_ = 0;
  workload::SocialGraph graph_;
  Rng rng_;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace dssmr::bench;

  RunRecordSink sink(argc, argv, "fig_dynamic_load");
  heading("E8: dynamic workload — create users + follow + post, repartition on-line");

  const harness::BenchOptions& opts = sink.options();
  harness::DeploymentConfig dep;
  sink.apply(dep);
  dep.partitions = 4;
  dep.replicas_per_partition = 2;
  dep.oracle_replicas = 2;
  dep.clients = 32;
  dep.node.rmcast_relay = false;
  dep.seed = 42;

  harness::Deployment d{dep, chirper::chirper_app_factory({usec(80), usec(5)}),
                        [] { return std::make_unique<core::DssmrPolicy>(); }};
  d.start();
  d.settle();

  std::optional<fault::Nemesis> nemesis;
  if (!opts.nemesis.empty()) {
    nemesis.emplace(d, fault::resolve_plan(opts.nemesis));
    nemesis->arm();
  }

  GrowingWorkload wl{1500, /*target_edges=*/3000, 7};
  harness::ClosedLoopDriver driver{d, [&wl] { return wl.next(); }};
  driver.run(/*warmup=*/0, /*measure=*/sec(12));

  subheading("DS-SMR oracle");
  print_series("tput(cps) ", d.metrics().series("client.completions").rates(12));
  print_series("moves/s   ", d.metrics().series("moves_ts").rates(12));
  std::printf("users created: %llu\n",
              static_cast<unsigned long long>(d.metrics().counter("oracle.creates")));

  stats::RunRecord rec;
  rec.label = "dssmr";
  rec.metrics = d.metrics();
  rec.add_meta("strategy", rec.label);
  rec.add_meta("partitions", std::to_string(dep.partitions));
  rec.add_meta("clients", std::to_string(dep.clients));
  rec.add_meta("seed", std::to_string(dep.seed));
  harness::add_knob_meta(opts, rec);
  sink.add(std::move(rec));
  return sink.finish();
}
