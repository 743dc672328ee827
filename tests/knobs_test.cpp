// The knob table (harness/knobs.cpp) as every fig_* bench sees it through
// bench::RunRecordSink: each flag sets the field apply() forwards, each bad
// value makes finish() return 2, the usage text names every flag, and the
// run-record meta keeps the keys, order and gating it had before the table.
#include "harness/knobs.h"

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"

namespace dssmr::harness {
namespace {

using Args = std::vector<const char*>;
using Meta = std::vector<std::pair<std::string, std::string>>;

bench::RunRecordSink sink_for(Args args) {
  args.insert(args.begin(), "fig_test");
  return bench::RunRecordSink(static_cast<int>(args.size()), args.data(), "test");
}

struct FlagCase {
  Args args;
  std::function<bool(const ChirperRunConfig&, const BenchOptions&)> holds;
};

// One valid use of every flag, each setting a non-default value.
std::vector<FlagCase> flag_cases() {
  using C = const ChirperRunConfig&;
  using O = const BenchOptions&;
  return {
      {{"--json", "out.json"}, [](C, O o) { return o.json_path == "out.json"; }},
      {{"--jobs", "3"}, [](C, O o) { return o.jobs == 3; }},
      {{"--trace"}, [](C c, O o) { return c.trace && o.trace_path == "TRACE_test.jsonl"; }},
      {{"--trace-chrome", "c.json"},
       [](C c, O o) {
         return c.spans && c.spans_capacity == 1u << 16 && o.chrome_path == "c.json";
       }},
      {{"--nemesis", "leader-kill-recover"},
       [](C c, O) { return c.nemesis == "leader-kill-recover"; }},
      {{"--batch-size", "8"}, [](C c, O) { return c.batch_size == 8; }},
      {{"--batch-delay-us", "50"}, [](C c, O) { return c.batch_delay == usec(50); }},
      {{"--pipeline-depth", "4"}, [](C c, O) { return c.pipeline_depth == 4; }},
      {{"--prefetch-k", "16"}, [](C c, O) { return c.prefetch_k == 16; }},
      {{"--telemetry"}, [](C c, O) { return c.telemetry; }},
  };
}

TEST(Knobs, EveryFlagSetsTheFieldApplyForwards) {
  const auto plain = sink_for({});
  ChirperRunConfig defaults;
  plain.apply(defaults);
  for (const FlagCase& fc : flag_cases()) {
    const auto sink = sink_for(fc.args);
    ChirperRunConfig cfg;
    sink.apply(cfg);
    EXPECT_TRUE(fc.holds(cfg, sink.options())) << fc.args[0];
    EXPECT_FALSE(fc.holds(defaults, plain.options())) << fc.args[0] << " is a default";
  }
}

TEST(Knobs, ApplyForwardsIntoDeploymentConfig) {
  const auto sink = sink_for({"--batch-size", "8", "--prefetch-k", "4", "--telemetry",
                              "--nemesis", "scale-out"});
  DeploymentConfig dep;
  sink.apply(dep);
  EXPECT_EQ(dep.batch_size, 8u);
  EXPECT_EQ(dep.prefetch_k, 4u);
  EXPECT_TRUE(dep.telemetry);
  EXPECT_EQ(dep.spans_capacity, 1u << 16);
  EXPECT_TRUE(dep.elastic);
  EXPECT_EQ(dep.replicas_per_partition, 3u);  // not a knob: untouched

  DeploymentConfig plain;
  sink_for({}).apply(plain);
  EXPECT_FALSE(plain.elastic);
  // Only a plan that adds or retires a partition makes the deployment elastic.
  DeploymentConfig faulty;
  sink_for({"--nemesis", "leader-kill-recover"}).apply(faulty);
  EXPECT_FALSE(faulty.elastic);
  DeploymentConfig mixed;
  sink_for({"--nemesis", "kill-leader:p0@120ms;add-partition@150ms"}).apply(mixed);
  EXPECT_TRUE(mixed.elastic);
}

TEST(Knobs, BadValuesMakeFinishReturnTwo) {
  const std::vector<Args> bad = {
      {"--jobs", "0"},
      {"--jobs"},
      {"--jobs", "abc"},
      {"--batch-size", "-1"},
      {"--batch-size", "abc"},
      {"--batch-size", "4x"},
      {"--pipeline-depth", "1e3"},
      {"--pipeline-depth", "-2"},
      {"--prefetch-k", "-1"},
      {"--batch-delay-us", "0"},
      {"--batch-delay-us", "5x"},
      {"--nemesis", "not-a-plan"},
      {"--nemesis"},
      {"--nemesis", "add-partition:1@1ms"},
      // The flag of the separate elasticity schedule, now a --nemesis event.
      {"--scale-plan", "scale-out"},
      // The sampling cadence, now the constant kTelemetryInterval.
      {"--telemetry-interval", "5000"},
      {"--no-such-flag"},
      // Flags of removed features (cache repair, move coalescing).
      {"--cache-repair"},
      {"--coalesce-moves", "4"},
      {"--coalesce-delay-us", "300"},
  };
  for (const Args& args : bad) {
    auto sink = sink_for(args);
    EXPECT_EQ(sink.finish(), 2) << args[0] << " " << (args.size() > 1 ? args[1] : "");
  }
  // A rejected value leaves its field at the default, so the sweep that still
  // runs before finish() stays fault-free and telemetry-free.
  EXPECT_TRUE(sink_for({"--nemesis", "not-a-plan"}).options().nemesis.empty());
  EXPECT_EQ(sink_for({"--batch-delay-us", "0"}).options().batch_delay, Knobs{}.batch_delay);
  EXPECT_FALSE(sink_for({"--telemetry-interval", "5000"}).options().telemetry);
  EXPECT_EQ(sink_for({"--batch-size", "4x"}).options().batch_size, 0u);
}

TEST(Knobs, UsageNamesEveryFlag) {
  std::set<std::string> listed;
  std::istringstream lines(bench_flag_usage());
  for (std::string line; std::getline(lines, line);) {
    std::istringstream words(line);
    std::string flag, syntax_or_help;
    words >> flag >> syntax_or_help;
    EXPECT_FALSE(syntax_or_help.empty()) << flag << " has no help line";
    listed.insert(flag);
  }
  std::set<std::string> tested;
  for (const FlagCase& fc : flag_cases()) tested.insert(fc.args[0]);
  EXPECT_EQ(listed, tested);
}

// The meta lists below are the ones make_run_record emitted before the knob
// table existed, kept verbatim.
TEST(Knobs, MetaMatchesTheHandWrittenRecord) {
  const RunResult no_run;
  ChirperRunConfig cfg;
  EXPECT_EQ(make_run_record(cfg, no_run).meta,
            (Meta{{"strategy", "DS-SMR"},
                  {"placement", "hash"},
                  {"partitions", "2"},
                  {"clients_per_partition", "5"},
                  {"replicas_per_partition", "2"},
                  {"seed", "1"},
                  {"warmup_us", "2000000"},
                  {"measure_us", "4000000"},
                  {"client_cache", "true"},
                  {"nemesis", "none"},
                  {"telemetry", "off"},
                  {"placement_edge_cut", "0.000000"},
                  {"throughput_cps", "0.000000"},
                  {"latency_p50_us", "0"},
                  {"latency_p95_us", "0"},
                  {"latency_p99_us", "0"},
                  {"ok", "0"},
                  {"nok", "0"}}));

  cfg.nemesis = "kill-leader:p0@120ms;add-partition@150ms";
  cfg.batch_size = 8;
  cfg.pipeline_depth = 4;
  cfg.prefetch_k = 8;
  cfg.telemetry = true;
  EXPECT_EQ(make_run_record(cfg, no_run).meta,
            (Meta{{"strategy", "DS-SMR"},
                  {"placement", "hash"},
                  {"partitions", "2"},
                  {"clients_per_partition", "5"},
                  {"replicas_per_partition", "2"},
                  {"seed", "1"},
                  {"warmup_us", "2000000"},
                  {"measure_us", "4000000"},
                  {"client_cache", "true"},
                  {"nemesis", "kill-leader:p0@120ms;add-partition@150ms"},
                  {"batch_size", "8"},
                  {"batch_delay_us", "100"},
                  {"pipeline_depth", "4"},
                  {"prefetch_k", "8"},
                  {"telemetry", "on"},
                  {"placement_edge_cut", "0.000000"},
                  {"throughput_cps", "0.000000"},
                  {"latency_p50_us", "0"},
                  {"latency_p95_us", "0"},
                  {"latency_p99_us", "0"},
                  {"ok", "0"},
                  {"nok", "0"}}));
}

TEST(Knobs, EachMetaGroupGatesOnItsOwnKnobs) {
  const auto keys = [](const RunKnobs& k) {
    stats::RunRecord rec;
    add_knob_meta(k, rec);
    std::vector<std::string> out;
    for (const auto& [key, value] : rec.meta) out.push_back(key);
    return out;
  };
  using Keys = std::vector<std::string>;
  RunKnobs k;
  k.pipeline_depth = 1;
  EXPECT_EQ(keys(k), (Keys{"nemesis", "batch_size", "batch_delay_us", "pipeline_depth",
                           "telemetry"}));
  k = RunKnobs{};
  k.prefetch_k = 1;
  EXPECT_EQ(keys(k), (Keys{"nemesis", "prefetch_k", "telemetry"}));
  // Delays and tracing alone turn no group on.
  k = RunKnobs{};
  k.batch_delay = usec(5);
  k.trace = true;
  k.spans = true;
  EXPECT_EQ(keys(k), (Keys{"nemesis", "telemetry"}));
}

}  // namespace
}  // namespace dssmr::harness
