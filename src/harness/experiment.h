// Experiment harness: closed-loop load driver + the standard Chirper run
// used by every throughput/latency figure (see DESIGN.md experiment index).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "chirper/chirper.h"
#include "common/types.h"
#include "harness/deployment.h"
#include "harness/knobs.h"
#include "smr/command.h"
#include "stats/histogram.h"
#include "stats/metrics.h"
#include "stats/run_record.h"
#include "workload/chirper_workload.h"

namespace dssmr::harness {

/// Drives every client of a deployment in a closed loop: each client issues
/// the next generated command as soon as the previous one completes (the
/// paper's synchronous clients). Latency is recorded only inside the
/// measurement window; time-series cover the whole run (for convergence
/// figures).
class ClosedLoopDriver {
 public:
  using Generator = std::function<smr::Command()>;

  ClosedLoopDriver(Deployment& deployment, Generator generator);

  /// Runs warm-up then measurement; returns at the end of the measurement
  /// window (outstanding commands are left to drain by the caller if needed).
  void run(Duration warmup, Duration measure);

  const stats::Histogram& latency() const { return latency_; }
  std::uint64_t measured_ok() const { return measured_ok_; }
  std::uint64_t measured_nok() const { return measured_nok_; }
  double throughput_cps() const;

 private:
  void kick(std::size_t client);

  Deployment& deployment_;
  Generator generator_;
  bool stopped_ = false;
  Time measure_start_ = 0;
  Time measure_end_ = 0;
  Duration measure_ = 0;
  stats::Histogram latency_;
  std::uint64_t measured_ok_ = 0;
  std::uint64_t measured_nok_ = 0;
};

// ---------------------------------------------------------------------------

enum class Placement : std::uint8_t {
  kHash,   // variable id modulo partitions (naive static placement)
  kMetis,  // multilevel-partitioner placement of the social graph
};

const char* to_string(Placement p);

/// The batching, locality, tracing, telemetry and nemesis-plan knobs come
/// from RunKnobs (harness/knobs.h).
struct ChirperRunConfig : RunKnobs {
  std::size_t partitions = 2;
  std::size_t clients_per_partition = 5;
  core::Strategy strategy = core::Strategy::kDssmr;
  Placement placement = Placement::kHash;

  workload::HolmeKimConfig graph{.n = 2000, .m = 2, .p_triad = 0.8};
  workload::ChirperWorkloadConfig workload;
  /// Simulated per-command CPU costs; the default saturates one partition at
  /// roughly 10k commands/s, in the ballpark of the paper's testbed.
  chirper::ChirperApp::Costs app_costs{usec(80), usec(5)};

  /// When set, overrides the Holme-Kim graph with a community-structured
  /// graph whose inter-community edge fraction is `controlled_edge_cut`
  /// (the paper's "x% edge cut" workloads). Communities = 2 * partitions.
  bool use_controlled_cut = false;
  double controlled_edge_cut = 0.0;

  Duration warmup = sec(2);
  Duration measure = sec(4);
  std::uint64_t seed = 1;

  /// Client location cache (Section "Performance optimizations").
  bool client_cache = true;

  /// DS-SMR destination rule (see DssmrPolicy::DestRule).
  core::DssmrPolicy::DestRule dssmr_dest_rule = core::DssmrPolicy::DestRule::kMostHeld;

  /// Tuned-for-simulation deployment knobs applied by run_chirper. Two
  /// replicas per partition have no majority left after a crash, so any
  /// partition crash stalls that group; fault-robustness runs should use 3.
  std::size_t replicas_per_partition = 2;
  bool rmcast_relay = false;  // crash-free perf runs
};

struct RunResult {
  std::string label;
  double throughput_cps = 0;
  double latency_avg_us = 0;
  std::int64_t latency_p50_us = 0;
  std::int64_t latency_p95_us = 0;
  std::int64_t latency_p99_us = 0;
  std::uint64_t ok = 0;
  std::uint64_t nok = 0;
  /// Simulator events executed during the drive phase (setup and settle
  /// excluded; deterministic per seed — Promise.BatchingCutsEventsPerCommand
  /// gates on the batched/unbatched ratio).
  std::uint64_t events_executed = 0;
  std::map<std::string, std::uint64_t> counters;
  /// Per-second series over the whole run (index = second).
  std::vector<double> tput_series;
  std::vector<double> moves_series;
  /// Oracle-leader CPU utilization per second, in [0,1].
  std::vector<double> oracle_busy_series;
  /// Initial placement quality.
  double placement_edge_cut = 0;
  stats::Histogram latency_hist;
  /// Full end-of-run snapshot of the deployment's metrics registry (all
  /// counters, histograms, series and the event trace) — the source for
  /// machine-readable run records.
  stats::Metrics metrics;

  std::uint64_t counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

/// Builds the Chirper deployment for `cfg`, preloads users per the placement,
/// drives the workload, and extracts the metrics every figure needs.
RunResult run_chirper(const ChirperRunConfig& cfg);

/// Packages one run as a machine-readable record (--json output): the full
/// metrics snapshot plus the config knobs and headline results as metadata.
/// `label` overrides RunResult::label when non-empty (benches usually label
/// runs with the swept parameter).
stats::RunRecord make_run_record(const ChirperRunConfig& cfg, const RunResult& r,
                                 std::string label = {});

/// The social graph + placement used by run_chirper, exposed so benches can
/// report workload characteristics (edge-cut %, clustering, degree).
struct PreparedWorkload {
  workload::SocialGraph graph;
  std::vector<std::uint32_t> part;  // per user
  double edge_cut_fraction = 0;
};
PreparedWorkload prepare_workload(const ChirperRunConfig& cfg);

}  // namespace dssmr::harness
