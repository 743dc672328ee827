// Causal span tracing end-to-end: trace-tree structure across the protocol
// layers, exact phase tiling of end-to-end latency, span propagation through
// the failed-move -> retry -> fallback path, disabled-mode invariance, and
// the Chrome trace_event / run-record exports.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/deployment.h"
#include "harness/experiment.h"
#include "smr/kv.h"
#include "stats/run_record.h"
#include "stats/span.h"
#include "stats/span_export.h"
#include "testing/dssmr_fixture.h"
#include "testing/tiny_json.h"

namespace dssmr::core {
namespace {

using harness::Deployment;
using smr::ReplyCode;
using stats::Span;
using stats::SpanPhase;
using stats::SpanQuery;
using namespace dssmr::testing;

std::unique_ptr<Deployment> deployment(harness::DeploymentConfig cfg, std::size_t vars = 6) {
  auto d = std::make_unique<Deployment>(
      cfg, kv::kv_app_factory(),
      [] { return std::make_unique<DssmrPolicy>(DssmrPolicy::DestRule::kMostHeld); });
  for (std::size_t i = 0; i < vars; ++i) {
    d->preload_var(VarId{i}, d->partition_gid(i % cfg.partitions),
                   kv::KvValue{static_cast<std::int64_t>(i), ""});
  }
  d->start();
  d->settle();
  return d;
}

TEST(Span, SingleCommandProducesCompleteTraceTree) {
  auto cfg = small_config(2, Strategy::kDssmr, 1);
  cfg.spans = true;
  auto d = deployment(cfg);
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{0})), ReplyCode::kOk);

  SpanQuery q{d->metrics().spans()};
  const auto ids = q.trace_ids();
  ASSERT_EQ(ids.size(), 1u);
  const Span* root = q.root(ids[0]);
  ASSERT_NE(root, nullptr);
  EXPECT_GT(root->duration(), 0);

  // A first DS-SMR op crosses every layer: consult (client + oracle view),
  // multicast, server queue/execute, reply.
  EXPECT_GE(q.count(ids[0], SpanPhase::kConsult), 1u);
  EXPECT_GE(q.count(ids[0], SpanPhase::kOracle), 1u);
  EXPECT_GE(q.count(ids[0], SpanPhase::kAmcast), 1u);
  EXPECT_GE(q.count(ids[0], SpanPhase::kQueue), 1u);
  EXPECT_GE(q.count(ids[0], SpanPhase::kExecute), 1u);
  EXPECT_GE(q.count(ids[0], SpanPhase::kReply), 1u);

  // Every non-root span of the trace hangs off the root (layers that only
  // know the trace id record parent 0, which attaches to the root).
  const auto all = q.trace(ids[0]);
  EXPECT_EQ(q.children(ids[0], root->id).size(), all.size() - 1);

  // The client-attributed phases tile [issue, finish] exactly.
  EXPECT_EQ(q.attributed_total(ids[0]), root->duration());

  // Server/oracle/multicast views are extra perspectives on time the client
  // already attributed — never folded into the phase histograms. (Client
  // spans carry the replying group for the Chrome export, so "recorded by
  // the client" is a node check, not a group check.)
  const std::uint32_t client_node = d->client(0).pid().value;
  for (const Span* s : all) {
    if (s->node != client_node) {
      EXPECT_FALSE(s->folded) << to_string(s->phase);
    }
  }
}

TEST(Span, PhasesTileEndToEndLatencyExactly) {
  auto cfg = small_config(3, Strategy::kDssmr, 2);
  cfg.spans = true;
  auto d = deployment(cfg);
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{1})), ReplyCode::kOk);
  // Multi-partition command: a fused move, so the kMove phase appears.
  EXPECT_EQ(run_op(*d, 0, kv_sum({VarId{0}, VarId{1}, VarId{2}}, VarId{0})), ReplyCode::kOk);
  EXPECT_EQ(run_op(*d, 1, kv_add(VarId{4}, 2)), ReplyCode::kOk);
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{0})), ReplyCode::kOk);

  const stats::SpanStore& store = d->metrics().spans();
  SpanQuery q{store};
  const auto ids = q.trace_ids();
  // Moves/consults reuse the originating command's trace id: one per command.
  ASSERT_EQ(ids.size(), 4u);
  for (std::uint64_t tid : ids) {
    const Span* root = q.root(tid);
    ASSERT_NE(root, nullptr) << "trace " << tid << " never finished";
    EXPECT_EQ(q.attributed_total(tid), root->duration()) << "trace " << tid;
  }

  // Histogram level: the per-phase totals sum to the command total (this is
  // the identity the run record's `phases` section documents).
  double phase_sum = 0;
  for (SpanPhase p : stats::kLatencyPhases) {
    const stats::Histogram& h = store.phase_histogram(p);
    phase_sum += h.mean() * static_cast<double>(h.count());
  }
  const stats::Histogram& cmd = store.phase_histogram(SpanPhase::kCommand);
  ASSERT_EQ(cmd.count(), 4u);
  EXPECT_EQ(store.phase_histogram(SpanPhase::kMove).count(), 1u);
  EXPECT_NEAR(phase_sum, cmd.mean() * static_cast<double>(cmd.count()), 0.5);
}

// The phantom variable (known only to the oracle) dooms every prophesied
// fused move, so the command traverses consult -> fused move (fail) -> retry
// ... -> S-SMR fallback. The whole journey must land in ONE trace.
TEST(Span, FailedMoveRetryFallbackStaysInOneTrace) {
  auto cfg = small_config(2, Strategy::kDssmr, 1);
  cfg.spans = true;
  auto d = std::make_unique<Deployment>(
      cfg, kv::kv_app_factory(),
      [] { return std::make_unique<DssmrPolicy>(DssmrPolicy::DestRule::kMostHeld); });
  d->preload_var(VarId{1}, d->partition_gid(1), kv::KvValue{7, ""});
  for (std::size_t r = 0; r < cfg.oracle_replicas; ++r) {
    d->oracle(r).preload(VarId{5}, d->partition_gid(0));
  }
  d->start();
  d->settle();

  EXPECT_EQ(run_op(*d, 0, kv_sum({VarId{1}, VarId{5}}, VarId{1})), ReplyCode::kOk);
  EXPECT_GE(d->metrics().counter("client.retries"), 1u);
  EXPECT_EQ(d->metrics().counter("client.fallbacks"), 1u);

  SpanQuery q{d->metrics().spans()};
  const auto ids = q.trace_ids();
  ASSERT_EQ(ids.size(), 1u) << "retries/moves must reuse the command's trace id";
  const std::uint64_t tid = ids[0];

  // Retried command: the original consult plus at least one re-consult.
  EXPECT_GE(q.count(tid, SpanPhase::kConsult), 2u);
  // Exactly one fallback window, and it is a view (not part of the tiling).
  const auto fallbacks = q.select(tid, SpanPhase::kFallback);
  ASSERT_EQ(fallbacks.size(), 1u);
  EXPECT_FALSE(fallbacks[0]->folded);
  // At least one fused attempt's move span closed unsuccessfully (arg != 0).
  const auto moves = q.select(tid, SpanPhase::kMove);
  ASSERT_GE(moves.size(), 1u);
  bool any_failed = false;
  for (const Span* m : moves) any_failed = any_failed || m->arg != 0;
  EXPECT_TRUE(any_failed);

  // Even through retries and the fallback, the tiling stays exact.
  const Span* root = q.root(tid);
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(q.attributed_total(tid), root->duration());
  // The fallback window ends when the command does.
  EXPECT_EQ(fallbacks[0]->end, root->end);
}

// Span tracing must not perturb the simulation: the trace id rides in a
// byte-budget that is charged whether tracing is on or off, and record()
// bails on one branch when disabled. Same seed + same ops => identical
// virtual-clock outcome either way.
TEST(Span, DisabledTracingIsVirtualTimeInvariantAndRecordsNothing) {
  struct Outcome {
    Time end_time = 0;
    std::map<std::string, std::uint64_t> counters;
    std::size_t spans_recorded = 0;
  };
  const auto run = [](bool spans) {
    auto cfg = small_config(2, Strategy::kDssmr, 2);
    cfg.spans = spans;
    auto d = deployment(cfg);
    EXPECT_EQ(run_op(*d, 0, kv_sum({VarId{0}, VarId{1}}, VarId{0})), ReplyCode::kOk);
    EXPECT_EQ(run_op(*d, 1, kv_add(VarId{2}, 5)), ReplyCode::kOk);
    EXPECT_EQ(run_op(*d, 0, kv_get(VarId{0})), ReplyCode::kOk);
    Outcome out;
    out.end_time = d->engine().now();
    for (const auto& [name, c] : d->metrics().counters()) out.counters[name] = c.value();
    out.spans_recorded = d->metrics().spans().spans().size();
    return out;
  };

  const Outcome off = run(false);
  const Outcome on = run(true);
  EXPECT_EQ(off.end_time, on.end_time);
  EXPECT_EQ(off.counters, on.counters);
  EXPECT_EQ(off.spans_recorded, 0u);
  EXPECT_GT(on.spans_recorded, 0u);
}

TEST(Span, ChromeTraceExportIsValidJsonWithCompleteTree) {
  auto cfg = small_config(2, Strategy::kDssmr, 1);
  cfg.spans = true;
  auto d = deployment(cfg);
  EXPECT_EQ(run_op(*d, 0, kv_sum({VarId{0}, VarId{1}}, VarId{0})), ReplyCode::kOk);
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{0})), ReplyCode::kOk);

  std::ostringstream os;
  stats::write_chrome_trace(os, d->metrics().spans(), "case-a");
  const JsonValue doc = JsonParser::parse(os.str());

  ASSERT_TRUE(doc.is_object());
  ASSERT_TRUE(doc.has("traceEvents"));
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());

  // Metadata must name the synthetic processes (clients + partitions).
  std::vector<std::string> process_names;
  std::map<std::int64_t, std::vector<std::string>> complete_by_trace;
  std::int64_t root_trace = -1;
  for (const JsonValue& e : events.array) {
    ASSERT_TRUE(e.is_object());
    const std::string ph = e.at("ph").str;
    if (ph == "M" && e.at("name").str == "process_name") {
      process_names.push_back(e.at("args").at("name").str);
      continue;
    }
    if (ph != "X") continue;
    // Complete events carry the full span schema.
    EXPECT_TRUE(e.at("name").is_string());
    EXPECT_TRUE(e.at("ts").is_number());
    EXPECT_TRUE(e.at("dur").is_number());
    EXPECT_TRUE(e.at("pid").is_number());
    EXPECT_TRUE(e.at("tid").is_number());
    EXPECT_GE(e.at("dur").as_int(), 0);
    const JsonValue& args = e.at("args");
    EXPECT_EQ(args.at("run").str, "case-a");
    const std::int64_t tid = args.at("trace_id").as_int();
    complete_by_trace[tid].push_back(e.at("name").str);
    if (e.at("name").str == "command") root_trace = tid;
  }

  auto has_name = [&](const std::string& want) {
    for (const std::string& n : process_names) {
      if (n.find(want) != std::string::npos) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_name("clients"));
  EXPECT_TRUE(has_name("partition 0"));
  EXPECT_TRUE(has_name("oracle"));

  // At least one complete span tree: a root plus children in the same trace.
  ASSERT_NE(root_trace, -1) << "no command root span exported";
  EXPECT_GE(complete_by_trace[root_trace].size(), 3u);
}

// The acceptance scenario: a multi-partition Chirper run with tracing
// produces a v2 run record whose `phases` histograms tile the end-to-end
// latency, and a Chrome trace that passes the schema check above.
TEST(Span, ChirperRunRecordCarriesPhasesAndChromeTrace) {
  harness::ChirperRunConfig cfg;
  cfg.partitions = 2;
  cfg.clients_per_partition = 2;
  cfg.graph.n = 200;
  cfg.warmup = msec(300);
  cfg.measure = msec(700);
  cfg.spans = true;
  harness::RunResult r = harness::run_chirper(cfg);
  ASSERT_GT(r.ok, 0u);

  // Per-command exact tiling over the full store.
  SpanQuery q{r.metrics.spans()};
  std::size_t finished = 0;
  for (std::uint64_t tid : q.trace_ids()) {
    const Span* root = q.root(tid);
    if (root == nullptr) continue;  // in flight when the run ended
    ++finished;
    EXPECT_EQ(q.attributed_total(tid), root->duration()) << "trace " << tid;
  }
  EXPECT_GT(finished, 0u);

  // Run record: schema v2, a `phases` section with the tiling phases.
  std::ostringstream rec_os;
  stats::write_run_records(rec_os, "span_test", {harness::make_run_record(cfg, r, "chirper")});
  const JsonValue doc = JsonParser::parse(rec_os.str());
  EXPECT_EQ(doc.at("schema").str, stats::kRunRecordSchema);
  const JsonValue& run = doc.at("runs").array.at(0);
  ASSERT_TRUE(run.has("phases"));
  const JsonValue& phases = run.at("phases");
  ASSERT_TRUE(phases.has("command"));
  EXPECT_TRUE(phases.has("amcast"));
  EXPECT_TRUE(phases.has("execute"));
  EXPECT_TRUE(phases.has("reply"));
  // Totals from the serialized histograms tile the command total.
  double phase_sum = 0;
  for (SpanPhase p : stats::kLatencyPhases) {
    const std::string key{to_string(p)};
    if (!phases.has(key)) continue;
    const JsonValue& h = phases.at(key);
    phase_sum += h.at("mean").number * h.at("count").number;
  }
  const JsonValue& cmd = phases.at("command");
  const double cmd_sum = cmd.at("mean").number * cmd.at("count").number;
  EXPECT_NEAR(phase_sum, cmd_sum, 0.01 * cmd_sum + 1.0);
  EXPECT_TRUE(run.at("spans").at("enabled").boolean);
  EXPECT_GT(run.at("spans").at("recorded").number, 0.0);

  // Chrome export of the same store parses.
  std::ostringstream chrome_os;
  stats::write_chrome_trace(chrome_os, r.metrics.spans(), "chirper");
  const JsonValue chrome = JsonParser::parse(chrome_os.str());
  EXPECT_GT(chrome.at("traceEvents").array.size(), 0u);
}

}  // namespace
}  // namespace dssmr::core
