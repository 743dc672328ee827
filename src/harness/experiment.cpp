#include "harness/experiment.h"

#include <algorithm>
#include <utility>

#include <optional>

#include "chirper/chirper.h"
#include "common/assert.h"
#include "fault/nemesis.h"
#include "partition/partitioner.h"

namespace dssmr::harness {

const char* to_string(Placement p) {
  switch (p) {
    case Placement::kHash:
      return "hash";
    case Placement::kMetis:
      return "metis";
  }
  return "?";
}

// ---- ClosedLoopDriver -------------------------------------------------------

ClosedLoopDriver::ClosedLoopDriver(Deployment& deployment, Generator generator)
    : deployment_(deployment), generator_(std::move(generator)) {
  DSSMR_ASSERT(generator_ != nullptr);
}

void ClosedLoopDriver::kick(std::size_t client) {
  if (stopped_) return;
  const Time t0 = deployment_.engine().now();
  deployment_.client(client).issue(
      generator_(), [this, client, t0](smr::ReplyCode code, const net::MessagePtr&) {
        const Time now = deployment_.engine().now();
        if (now > measure_start_ && now <= measure_end_) {
          latency_.record(now - t0);
          if (code == smr::ReplyCode::kOk) {
            ++measured_ok_;
          } else {
            ++measured_nok_;
          }
        }
        kick(client);
      });
}

void ClosedLoopDriver::run(Duration warmup, Duration measure) {
  measure_ = measure;
  measure_start_ = deployment_.engine().now() + warmup;
  measure_end_ = measure_start_ + measure;
  stopped_ = false;
  // Staggered starts avoid a same-instant thundering herd.
  for (std::size_t c = 0; c < deployment_.client_count(); ++c) {
    deployment_.engine().schedule(usec(static_cast<Duration>(c) * 150), [this, c] {
      if (!deployment_.client(c).busy()) kick(c);
    });
  }
  deployment_.engine().run_until(measure_end_);
  stopped_ = true;
}

double ClosedLoopDriver::throughput_cps() const {
  return measure_ == 0 ? 0.0
                       : static_cast<double>(measured_ok_) / to_seconds(measure_);
}

// ---- Chirper experiment -------------------------------------------------------

PreparedWorkload prepare_workload(const ChirperRunConfig& cfg) {
  Rng rng{cfg.seed * 0x9e3779b9ULL + 17};
  const auto k = static_cast<std::uint32_t>(cfg.partitions);

  workload::SocialGraph graph{0};
  if (cfg.use_controlled_cut) {
    // Many small communities per partition: real social graphs have fine
    // community structure, and coarse communities would turn placement
    // variance into artificial load imbalance.
    const std::size_t communities = std::max<std::size_t>(16 * cfg.partitions, 16);
    workload::HolmeKimConfig per_community = cfg.graph;
    per_community.n = static_cast<std::uint32_t>(
        std::max<std::size_t>(cfg.graph.n / communities, per_community.m + 2));
    graph = workload::SocialGraph::generate_communities(per_community, communities,
                                                        cfg.controlled_edge_cut, rng);
  } else {
    graph = workload::SocialGraph::generate(cfg.graph, rng);
  }
  PreparedWorkload out{std::move(graph), {}, 0.0};
  if (cfg.placement == Placement::kMetis && k > 1) {
    partition::PartitionerConfig pcfg;
    pcfg.k = k;
    out.part = partition::partition_graph(out.graph.to_csr(), pcfg).part;
  } else {
    out.part = partition::hash_partition(out.graph.user_count(),
                                         std::max<std::uint32_t>(k, 1));
  }
  const partition::Csr csr = out.graph.to_csr();
  out.edge_cut_fraction = partition::edge_cut_fraction(csr, out.part);
  return out;
}

RunResult run_chirper(const ChirperRunConfig& cfg) {
  PreparedWorkload prepared = prepare_workload(cfg);

  DeploymentConfig dep;
  apply_knobs(cfg, dep);
  dep.partitions = cfg.partitions;
  dep.replicas_per_partition = cfg.replicas_per_partition;
  dep.oracle_replicas = cfg.replicas_per_partition;
  dep.clients = cfg.partitions * cfg.clients_per_partition;
  dep.strategy = cfg.strategy;
  dep.node.rmcast_relay = cfg.rmcast_relay;
  dep.client_cache = cfg.client_cache;
  dep.seed = cfg.seed;

  const auto rule = cfg.dssmr_dest_rule;
  Deployment d{dep, chirper::chirper_app_factory(cfg.app_costs),
               [rule] { return std::make_unique<core::DssmrPolicy>(rule); }};

  // Preload every user on its assigned partition.
  d.reserve_vars(prepared.graph.user_count());
  for (std::size_t u = 0; u < prepared.graph.user_count(); ++u) {
    chirper::UserValue user;
    user.followers = prepared.graph.neighbors(VarId{u});
    user.following = user.followers;  // mutual-follow model
    d.preload_var(VarId{u}, d.partition_gid(prepared.part[u]), user);
  }
  d.start();
  d.settle();

  // The nemesis lives for the whole driven run; its scheduled events capture
  // `*nemesis`, so it must outlive driver.run().
  std::optional<fault::Nemesis> nemesis;
  if (!cfg.nemesis.empty()) {
    nemesis.emplace(d, fault::resolve_plan(cfg.nemesis));
    nemesis->arm();
  }

  workload::ChirperWorkload wl{prepared.graph, cfg.workload, cfg.seed * 31 + 7};
  ClosedLoopDriver driver{d, [&wl] { return wl.next(); }};
  const std::uint64_t drive_ev0 = d.engine().events_executed();
  driver.run(cfg.warmup, cfg.measure);

  RunResult r;
  r.events_executed = d.engine().events_executed() - drive_ev0;
  r.label = std::string(to_string(cfg.strategy)) + "/" + to_string(cfg.placement);
  r.throughput_cps = driver.throughput_cps();
  r.latency_hist = driver.latency();
  r.latency_avg_us = r.latency_hist.mean();
  r.latency_p50_us = r.latency_hist.percentile(0.50);
  r.latency_p95_us = r.latency_hist.percentile(0.95);
  r.latency_p99_us = r.latency_hist.percentile(0.99);
  r.ok = driver.measured_ok();
  r.nok = driver.measured_nok();
  for (const auto& [name, c] : d.metrics().counters()) r.counters[name] = c.value();
  r.placement_edge_cut = prepared.edge_cut_fraction;

  // Clients and oracles intern these series at init, so they always exist.
  const Time end = d.engine().now();
  const auto seconds = static_cast<std::size_t>(end / sec(1)) + 1;
  r.tput_series = d.metrics().series("client.completions").rates(seconds);
  r.moves_series = d.metrics().series("moves_ts").rates(seconds);
  r.oracle_busy_series = d.metrics().series("oracle.busy_us").rates(seconds);
  for (double& busy : r.oracle_busy_series) busy /= 1e6;  // busy µs per second
  r.metrics = d.metrics();
  // The registry's client.latency_us covers the whole run (warmup included);
  // keep the measurement-window histogram alongside it for run records.
  r.metrics.histogram("measured.latency_us").merge(r.latency_hist);
  return r;
}

stats::RunRecord make_run_record(const ChirperRunConfig& cfg, const RunResult& r,
                                 std::string label) {
  stats::RunRecord rec;
  rec.label = label.empty() ? r.label : std::move(label);
  rec.metrics = r.metrics;
  rec.add_meta("strategy", to_string(cfg.strategy));
  rec.add_meta("placement", to_string(cfg.placement));
  rec.add_meta("partitions", std::to_string(cfg.partitions));
  rec.add_meta("clients_per_partition", std::to_string(cfg.clients_per_partition));
  rec.add_meta("replicas_per_partition", std::to_string(cfg.replicas_per_partition));
  rec.add_meta("seed", std::to_string(cfg.seed));
  rec.add_meta("warmup_us", std::to_string(cfg.warmup));
  rec.add_meta("measure_us", std::to_string(cfg.measure));
  rec.add_meta("client_cache", cfg.client_cache ? "true" : "false");
  add_knob_meta(cfg, rec);
  rec.add_meta("placement_edge_cut", std::to_string(r.placement_edge_cut));
  rec.add_meta("throughput_cps", std::to_string(r.throughput_cps));
  rec.add_meta("latency_p50_us", std::to_string(r.latency_p50_us));
  rec.add_meta("latency_p95_us", std::to_string(r.latency_p95_us));
  rec.add_meta("latency_p99_us", std::to_string(r.latency_p99_us));
  rec.add_meta("ok", std::to_string(r.ok));
  rec.add_meta("nok", std::to_string(r.nok));
  return rec;
}

}  // namespace dssmr::harness
