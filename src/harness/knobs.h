// Run knobs, declared once.
//
// The protocol and instrumentation settings that every fig_* bench exposes
// as a flag, forwards into its run configs and stamps into its run records
// live here. Each field's default is its in-class initializer; the table in
// knobs.cpp maps each flag to its field, parser, run-record meta key and
// help line, and drives CLI parsing, the usage text, the meta and the doc
// lint (tools/check_docs.py).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "common/types.h"

namespace dssmr::stats {
struct RunRecord;
}

namespace dssmr::harness {

struct DeploymentConfig;

/// Knobs shared by ChirperRunConfig and DeploymentConfig. Both inherit it, so
/// every field stays directly assignable (`cfg.batch_size = 8`).
struct Knobs {
  /// Submission batching (multicast/batcher.h): 0 disables it and the
  /// deployment is byte-identical to a build without batching — no relay
  /// processes exist and group nodes construct no batcher. When > 0, one
  /// BatchRelay per rack collects its clients' multicasts and every group
  /// node batches its remote submissions with the same knobs.
  std::size_t batch_size = 0;
  /// Max virtual-time wait from the first queued submission to the flush.
  Duration batch_delay = usec(100);
  /// Paxos pipeline window: in-flight proposals per leader (0 = unbounded,
  /// the original single-slot-per-flush behavior).
  std::size_t pipeline_depth = 0;

  /// Locality fast path (all off by default; defaults keep the deployment —
  /// process layout, wire bytes, run record — byte-identical to a build
  /// without it). prefetch_k > 0 makes prophecies carry up to k co-accessed
  /// neighbour locations that clients install into their caches.
  std::size_t prefetch_k = 0;
  /// Replies piggyback ⟨var, partition, epoch⟩ repair entries; clients heal
  /// stale caches monotonically and re-route retries without re-consulting.
  bool cache_repair = false;
  /// Coalesce concurrent moves with overlapping destination sets into one
  /// bulk multicast: > 0 enables it (flush threshold) both at the oracle
  /// (DynaStar's oracle-issued moves) and via a client-tier relay (DS-SMR's
  /// client-issued moves).
  std::size_t coalesce_moves = 0;
  /// Max wait from the first buffered move to the coalesced flush.
  Duration coalesce_delay = usec(200);

  /// Records every protocol-event instant (consult, move, retry, ...) in the
  /// deployment's event store (stats/span.h) — the `--trace` JSONL view; off
  /// by default so hot paths only pay the enabled-check.
  bool trace = false;
  /// Enables causal span tracing (stats/span.h): per-command phase latency
  /// decomposition and Chrome-trace export. Same default-off rationale.
  bool spans = false;
  /// Caps the spans retained for export (0 = SpanStore default). Phase
  /// histograms and counts keep accumulating past the cap, so the run
  /// record's `phases` section stays complete; only the exported span list
  /// is truncated (benches cap it to keep Chrome traces loadable).
  std::size_t spans_capacity = 0;

  /// Enables flight-recorder telemetry (stats::Recorder): gauge sampling on
  /// a virtual-time cadence, windowed per-partition heat, windowed latency
  /// percentiles and timeline marks (labelled instants in the event store).
  /// Off by default; when off, no tick chain is scheduled and every record_*
  /// call is a one-branch no-op, so the virtual-time schedule is identical to
  /// a build without telemetry.
  bool telemetry = false;
  /// Gauge-sampling cadence and heat/latency bucket width.
  Duration telemetry_interval = msec(100);
};

/// Knobs only a driven run acts on: actors armed right after settle().
struct RunKnobs : Knobs {
  /// Fault plan: a shipped plan name or fault-plan DSL (see
  /// fault/fault_plan.h). Empty = no faults.
  std::string nemesis;
  /// Scale plan: a shipped plan name or scale-plan DSL (see
  /// fault/scale_plan.h). Empty = no elasticity (and the run stays
  /// byte-identical to the pre-elasticity code). Composes with `nemesis` —
  /// both actors are armed on the same clock.
  std::string scale_plan;
};

/// Copies the deployment-level knobs into `dep` and turns elasticity on
/// exactly when a scale plan is set.
void apply_knobs(const RunKnobs& knobs, DeploymentConfig& dep);

/// Appends the knobs' run-record metadata to `rec`: `nemesis` and
/// `telemetry` always, every other key only when its group is on.
void add_knob_meta(const RunKnobs& knobs, stats::RunRecord& rec);

/// Everything the shared fig_* command line sets: the run knobs plus where
/// the outputs go and how many sweep threads run.
struct BenchOptions : RunKnobs {
  std::string json_path;    // empty = no run-record file
  std::string trace_path;   // empty = no JSON Lines event trace
  std::string chrome_path;  // empty = no Chrome trace_event file
  std::size_t jobs = 1;
};

/// Parses the shared bench flags into `out`. Every bad argument prints one
/// line on stderr and leaves its field untouched; returns false if any did.
/// `experiment` names the default output files (BENCH_<experiment>.json...).
bool parse_bench_flags(int argc, const char* const* argv, const std::string& experiment,
                       BenchOptions& out);

/// One line per flag: its syntax, help line and default.
std::string bench_flag_usage();

/// `s` read whole as a decimal integer; nullopt when it is empty, carries
/// anything after the digits ("4x", "1e3") or overflows.
std::optional<long long> parse_integer(std::string_view s);

}  // namespace dssmr::harness
