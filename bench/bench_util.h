// Shared helpers for the figure-regeneration binaries: table formatting plus
// the --json/--trace machine-readable outputs (see EXPERIMENTS.md).
#pragma once

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "harness/experiment.h"
#include "harness/knobs.h"
#include "harness/sweep.h"
#include "stats/run_record.h"
#include "stats/span_export.h"

namespace dssmr::bench {

/// Parses the flags every fig_* binary shares, collects one stats::RunRecord
/// per run and writes the requested outputs on finish(). The flags, their
/// defaults and help lines are declared once, in the knob table
/// (src/harness/knobs.cpp); an unknown flag prints that list. Benches forward
/// the parsed knobs into each run config with apply().
class RunRecordSink {
 public:
  RunRecordSink(int argc, const char* const* argv, std::string experiment)
      : experiment_(std::move(experiment)) {
    bad_args_ = !harness::parse_bench_flags(argc, argv, experiment_, options_);
    // Retained-span cap per run: a full sweep records millions of spans, and
    // an uncapped Chrome trace would be too large for Perfetto (and for CI
    // artifacts). Phase histograms are unaffected — only the exported span
    // list is truncated.
    options_.spans_capacity = 1u << 16;
  }

  /// The parsed command line: run knobs, output paths and --jobs.
  const harness::BenchOptions& options() const { return options_; }

  /// Forwards every run knob into a bench's run config (the RunKnobs part of
  /// options()). With no flags the knobs keep their defaults, so every bench
  /// stays byte-identical to its feature-free output.
  void apply(harness::RunKnobs& cfg) const { cfg = options_; }
  void apply(harness::DeploymentConfig& dep) const { harness::apply_knobs(options_, dep); }

  void add(stats::RunRecord record) { records_.push_back(std::move(record)); }

  /// Convenience for the standard chirper runs.
  void add(const harness::ChirperRunConfig& cfg, const harness::RunResult& r,
           std::string label = {}) {
    records_.push_back(harness::make_run_record(cfg, r, std::move(label)));
  }

  /// Writes the requested outputs; returns the process exit code for main().
  int finish() {
    if (bad_args_) return 2;
    const std::string& json_path = options_.json_path;
    if (!json_path.empty()) {
      std::ofstream os(json_path);
      if (!os) {
        std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
        return 1;
      }
      stats::write_run_records(os, experiment_, records_);
      std::printf("\nwrote %s (%zu runs)\n", json_path.c_str(), records_.size());
    }
    const std::string& trace_path = options_.trace_path;
    if (!trace_path.empty()) {
      std::ofstream os(trace_path);
      if (!os) {
        std::fprintf(stderr, "cannot open %s for writing\n", trace_path.c_str());
        return 1;
      }
      for (const stats::RunRecord& rec : records_) {
        stats::write_trace_jsonl(os, rec.metrics.spans(), rec.label);
      }
      std::printf("wrote %s\n", trace_path.c_str());
    }
    const std::string& chrome_path = options_.chrome_path;
    if (!chrome_path.empty()) {
      std::ofstream os(chrome_path);
      if (!os) {
        std::fprintf(stderr, "cannot open %s for writing\n", chrome_path.c_str());
        return 1;
      }
      stats::ChromeTraceExport chrome(os);
      for (const stats::RunRecord& rec : records_) {
        chrome.add_run(rec.metrics.spans(), rec.label);
      }
      chrome.finish();
      std::printf("wrote %s\n", chrome_path.c_str());
    }
    return 0;
  }

 private:
  std::string experiment_;
  harness::BenchOptions options_;
  bool bad_args_ = false;
  std::vector<stats::RunRecord> records_;
};

/// The Chirper setup the figures share: 8 closed-loop clients per partition on
/// a 2048-user community-structured Holme–Kim graph whose cross-community edge
/// fraction is `edge_cut` (the paper's "x% edge cut"), seed 42. Benches set
/// the strategy, shape, mix and windows on top.
inline harness::ChirperRunConfig chirper_base(double edge_cut) {
  harness::ChirperRunConfig cfg;
  cfg.clients_per_partition = 8;
  cfg.graph = {.n = 2048, .m = 2, .p_triad = 0.8};
  cfg.use_controlled_cut = true;
  cfg.controlled_edge_cut = edge_cut;
  cfg.seed = 42;
  return cfg;
}

/// One sweep entry: the run config plus the label used for the table row and
/// the run record.
struct SweepPoint {
  harness::ChirperRunConfig cfg;
  std::string label;
};

/// Runs every point (in parallel when --jobs > 1), records each run in the
/// sink in submission order, and returns the results positionally matched to
/// `points`. Callers print their tables from the returned vector, so stdout
/// and the JSON file are byte-identical whatever the thread count.
inline std::vector<harness::RunResult> run_points(RunRecordSink& sink,
                                                  const std::vector<SweepPoint>& points) {
  std::vector<harness::ChirperRunConfig> cfgs;
  cfgs.reserve(points.size());
  for (const SweepPoint& p : points) cfgs.push_back(p.cfg);
  std::vector<harness::RunResult> results = harness::run_sweep(cfgs, sink.options().jobs);
  for (std::size_t i = 0; i < points.size(); ++i) {
    sink.add(points[i].cfg, results[i], points[i].label);
  }
  return results;
}

inline void heading(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void subheading(const std::string& title) {
  std::printf("\n-- %s --\n", title.c_str());
}

/// Whole percent of a fraction, for labels ("cut5" for 0.05).
inline std::string percent(double fraction) {
  return std::to_string(static_cast<int>(fraction * 100));
}

inline const char* mix_name(const workload::ChirperMix& mix) {
  if (mix.timeline == 1.0) return "Timeline";
  if (mix.post == 1.0) return "Post";
  if (mix.follow > 0 && mix.timeline == 0) return "Follow/Unfollow";
  return "Mix(85/7.5/7.5)";
}

inline void print_run_header() {
  std::printf("%-22s %5s %10s %10s %8s %8s %8s %9s %9s %9s\n", "strategy", "parts",
              "tput(cps)", "lat(us)", "p50", "p95", "p99", "moves", "retries", "consults");
}

inline void print_run_row(const std::string& label, std::size_t partitions,
                          const harness::RunResult& r) {
  std::printf("%-22s %5zu %10.0f %10.0f %8lld %8lld %8lld %9llu %9llu %9llu\n", label.c_str(),
              partitions, r.throughput_cps, r.latency_avg_us,
              static_cast<long long>(r.latency_p50_us),
              static_cast<long long>(r.latency_p95_us),
              static_cast<long long>(r.latency_p99_us),
              static_cast<unsigned long long>(r.counter("client.moves")),
              static_cast<unsigned long long>(r.counter("client.retries")),
              static_cast<unsigned long long>(r.counter("client.consults")));
}

/// Per-second series as one row per second.
inline void print_series(const char* name, const std::vector<double>& series) {
  std::printf("%s:", name);
  for (double v : series) std::printf(" %.0f", v);
  std::printf("\n");
}

}  // namespace dssmr::bench
