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

/// Telemetry's gauge-sampling cadence and heat/latency bucket width.
inline constexpr Duration kTelemetryInterval = msec(100);

/// Knobs shared by ChirperRunConfig and DeploymentConfig. Both inherit it, so
/// every field stays directly assignable (`cfg.prefetch_k = 8`).
struct Knobs {
  /// Locality fast path, prophecy prefetch (off by default; off keeps the
  /// deployment — wire bytes, run record — byte-identical to a build without
  /// it). prefetch_k > 0 makes prophecies carry up to k co-accessed
  /// neighbour locations that clients install into their caches.
  std::size_t prefetch_k = 0;
  /// Removed features (piggybacked cache repair, move coalescing), kept only
  /// so existing callers that assign the defaults still compile. No flag sets
  /// them, and Deployment rejects any other value.
  bool cache_repair = false;
  std::size_t coalesce_moves = 0;
  Duration coalesce_delay = usec(200);
  /// Removed features (submission batching, the Paxos pipeline window), kept
  /// only so existing callers that assign them still compile. No flag sets
  /// them and nothing reads them, whatever their value: the Paxos leader's
  /// own rule (consensus/paxos.h) is the only batching.
  std::size_t batch_size = 0;
  Duration batch_delay = usec(100);
  std::size_t pipeline_depth = 0;

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

  /// Enables flight-recorder telemetry (stats::Recorder): the deployment
  /// samples its gauges every kTelemetryInterval of virtual time and hands
  /// them to the recorder, which also keeps windowed per-partition heat,
  /// windowed latency percentiles and timeline marks (labelled instants in
  /// the event store). Off by default; when off, no tick chain is scheduled
  /// and every record_* call is a one-branch no-op, so the virtual-time
  /// schedule is identical to a build without telemetry.
  bool telemetry = false;
};

/// Knobs only a driven run acts on: actors armed right after settle().
struct RunKnobs : Knobs {
  /// Fault plan: a shipped plan name or fault-plan DSL (see
  /// fault/fault_plan.h), faults and partition adds/removes alike. Empty =
  /// no faults and no elasticity.
  std::string nemesis;
};

/// Copies the deployment-level knobs into `dep` and turns elasticity on
/// exactly when the nemesis plan adds or retires a partition.
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
