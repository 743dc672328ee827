// Fine-grained oracle behaviour, observed through the full stack: prophecy
// contents, destination recommendations, signal-gated create replies, and
// the consult path (a command's first access consult is answered outside the
// oracle's log, every other consult through it).
#include <gtest/gtest.h>

#include <unordered_set>

#include "fault/fault_plan.h"
#include "fault/nemesis.h"
#include "harness/deployment.h"
#include "lincheck/lincheck.h"
#include "smr/kv.h"
#include "testing/dssmr_fixture.h"
#include "testing/history.h"

namespace dssmr::core {
namespace {

using harness::Deployment;
using smr::ReplyCode;
using namespace dssmr::testing;

/// A test client that exposes raw consult/prophecy interaction.
class ProbingClient : public multicast::ClientNode {
 public:
  std::vector<std::shared_ptr<const smr::ProphecyMsg>> prophecies;

  void consult(GroupId oracle, const smr::Command& cmd) {
    const MsgId id = fresh_id();
    amcast_with_id(id, {oracle}, net::make_msg<smr::ConsultMsg>(id, cmd));
  }

  /// The unordered path: point to point to every oracle replica.
  void consult_direct(GroupId oracle, const smr::Command& cmd) {
    send_to_group(oracle, net::make_msg<smr::ConsultMsg>(fresh_id(), cmd));
  }

 protected:
  void on_reply(ProcessId, const net::MessagePtr& m) override {
    if (auto p = std::dynamic_pointer_cast<const smr::ProphecyMsg>(m)) {
      prophecies.push_back(std::move(p));
    }
  }
};

struct OracleFixture : ::testing::Test {
  OracleFixture()
      : d(small_config(2, Strategy::kDssmr, 1), kv::kv_app_factory(),
          [] { return std::make_unique<DssmrPolicy>(DssmrPolicy::DestRule::kMostHeld); }) {
    for (std::size_t i = 0; i < 6; ++i) {
      d.preload_var(VarId{i}, d.partition_gid(i % 2), kv::KvValue{0, ""});
    }
    d.start();
    d.settle();
    d.network().add_process(probe, 0);
    probe.init_client_node(d.network(), directory());
  }

  const multicast::Directory& directory() {
    // The probing client reuses the deployment's directory via a client proxy.
    return d.client(0).directory();
  }

  const smr::ProphecyMsg& last_prophecy() {
    DSSMR_ASSERT(!probe.prophecies.empty());
    return *probe.prophecies.back();
  }

  void run_until_prophecy(std::size_t count) {
    const Time deadline = d.engine().now() + sec(5);
    while (probe.prophecies.size() < count && d.engine().now() < deadline) {
      d.engine().run_for(msec(5));
    }
    ASSERT_EQ(probe.prophecies.size(), count);
  }

  Deployment d;
  ProbingClient probe;
};

TEST_F(OracleFixture, ProphecyListsEveryVariableLocation) {
  smr::Command cmd = kv_sum({VarId{0}, VarId{1}, VarId{2}}, VarId{0});
  probe.consult(d.oracle_gid(), cmd);
  run_until_prophecy(1);
  const auto& p = last_prophecy();
  EXPECT_EQ(p.code, ReplyCode::kOk);
  ASSERT_EQ(p.locations.size(), 3u);
  for (const auto& [v, loc] : p.locations) {
    EXPECT_EQ(loc, d.partition_gid(v.value % 2));
  }
  // Two of three variables on partition 0 -> most-held recommends partition 0.
  EXPECT_EQ(p.dest, d.partition_gid(0));
}

TEST_F(OracleFixture, SinglePartitionProphecyHasNoMoveDestNeeded) {
  probe.consult(d.oracle_gid(), kv_get(VarId{0}));
  run_until_prophecy(1);
  const auto& p = last_prophecy();
  EXPECT_EQ(p.code, ReplyCode::kOk);
  ASSERT_EQ(p.locations.size(), 1u);
  EXPECT_EQ(p.dest, d.partition_gid(0));
}

TEST_F(OracleFixture, UnknownVariableProphecyIsNok) {
  probe.consult(d.oracle_gid(), kv_get(VarId{555}));
  run_until_prophecy(1);
  EXPECT_EQ(last_prophecy().code, ReplyCode::kNok);
  EXPECT_TRUE(last_prophecy().locations.empty());
}

TEST_F(OracleFixture, CreateProphecyAssignsAPartition) {
  probe.consult(d.oracle_gid(), make_create(VarId{100}));
  run_until_prophecy(1);
  const auto& p = last_prophecy();
  EXPECT_EQ(p.code, ReplyCode::kOk);
  EXPECT_NE(p.dest, kNoGroup);
  // Existing variable -> nok.
  probe.consult(d.oracle_gid(), make_create(VarId{0}));
  run_until_prophecy(2);
  EXPECT_EQ(last_prophecy().code, ReplyCode::kNok);
}

TEST_F(OracleFixture, ConsultsDoNotMutateTheMapping) {
  const auto before = d.oracle(0).mapping().entries();
  probe.consult(d.oracle_gid(), kv_sum({VarId{0}, VarId{1}}, VarId{0}));
  run_until_prophecy(1);
  EXPECT_EQ(d.oracle(0).mapping().entries(), before);
}

TEST_F(OracleFixture, MappingVarCountTracksCreatesAndDeletes) {
  EXPECT_EQ(d.oracle(0).mapping().var_count(), 6u);
  EXPECT_EQ(run_op(d, 0, make_create(VarId{50})), ReplyCode::kOk);
  EXPECT_EQ(d.oracle(0).mapping().var_count(), 7u);
  EXPECT_EQ(run_op(d, 0, make_delete(VarId{50})), ReplyCode::kOk);
  EXPECT_EQ(d.oracle(0).mapping().var_count(), 6u);
}

TEST_F(OracleFixture, OracleBusyTimeAccrues) {
  EXPECT_EQ(run_op(d, 0, kv_get(VarId{0})), ReplyCode::kOk);
  Duration busy = 0;
  for (std::size_t r = 0; r < 3; ++r) busy += d.oracle(r).busy_time();
  EXPECT_GT(busy, 0);
}

// ---- the consult path ------------------------------------------------------

std::vector<std::uint64_t> oracle_deliveries(Deployment& d) {
  std::vector<std::uint64_t> n;
  for (std::size_t r = 0; r < d.config().oracle_replicas; ++r) {
    n.push_back(d.oracle(r).amcast_delivered());
  }
  return n;
}

/// Consult ids sent since the event store was last cleared, in send order,
/// and the ids of every multicast delivered meanwhile (needs `trace`; an
/// ordered consult's multicast id is its consult id).
struct ConsultRoutes {
  std::vector<std::uint64_t> sent;
  std::unordered_set<std::uint64_t> ordered;
};

ConsultRoutes consult_routes(Deployment& d) {
  ConsultRoutes routes;
  for (const stats::Instant& e : d.metrics().spans().instants()) {
    if (e.kind == stats::InstantKind::kConsult) routes.sent.push_back(e.id);
    if (e.kind == stats::InstantKind::kAmcastDeliver) routes.ordered.insert(e.id);
  }
  return routes;
}

/// Asserts the command's first consult skipped the log and every later one
/// went through it.
void expect_only_first_consult_direct(const ConsultRoutes& routes, std::size_t min_consults) {
  ASSERT_GE(routes.sent.size(), min_consults);
  EXPECT_FALSE(routes.ordered.contains(routes.sent.front()));
  for (std::size_t i = 1; i < routes.sent.size(); ++i) {
    EXPECT_TRUE(routes.ordered.contains(routes.sent[i])) << "consult #" << i;
  }
}

std::unique_ptr<Deployment> traced_deployment(harness::DeploymentConfig cfg) {
  cfg.trace = true;
  return std::make_unique<Deployment>(
      cfg, kv::kv_app_factory(),
      [] { return std::make_unique<DssmrPolicy>(DssmrPolicy::DestRule::kMostHeld); });
}

void preload_and_start(Deployment& d, std::size_t vars) {
  for (std::size_t i = 0; i < vars; ++i) {
    d.preload_var(VarId{i}, d.partition_gid(i % 2), kv::KvValue{0, ""});
  }
  d.start();
  d.settle();
}

TEST_F(OracleFixture, FirstAccessConsultIsAnsweredOutsideTheLog) {
  const auto before = oracle_deliveries(d);
  EXPECT_EQ(run_op(d, 0, kv_sum({VarId{0}, VarId{2}}, VarId{0})), ReplyCode::kOk);
  EXPECT_EQ(d.metrics().counter("client.consults"), 1u);
  EXPECT_EQ(d.metrics().counter("oracle.consults"), 1u);
  EXPECT_EQ(oracle_deliveries(d), before);
}

TEST_F(OracleFixture, DirectConsultGetsExactlyOneProphecy) {
  ASSERT_EQ(d.config().oracle_replicas, 3u);
  const auto before = oracle_deliveries(d);
  probe.consult_direct(d.oracle_gid(), kv_get(VarId{1}));
  d.engine().run_for(msec(100));
  ASSERT_EQ(probe.prophecies.size(), 1u);
  EXPECT_EQ(last_prophecy().dest, d.partition_gid(1));
  EXPECT_EQ(oracle_deliveries(d), before);
}

TEST_F(OracleFixture, DirectConsultToADeadLeaderIsAnsweredByTheNextOne) {
  // The consult reaches only the followers. The one elected answers it from
  // what it held, before the client's timeout would have re-sent it.
  std::size_t dead = 0;
  while (dead + 1 < d.config().oracle_replicas && !d.oracle(dead).is_leader()) ++dead;
  ASSERT_TRUE(d.oracle(dead).is_leader());
  d.network().crash(d.oracle(dead).pid());
  d.oracle(dead).halt_node();
  probe.consult_direct(d.oracle_gid(), kv_get(VarId{1}));
  d.engine().run_for(d.config().client_timeout);
  ASSERT_EQ(probe.prophecies.size(), 1u);
  EXPECT_EQ(last_prophecy().dest, d.partition_gid(1));
}

TEST(ConsultPath, ReconsultAfterRetryIsOrdered) {
  auto d = traced_deployment(small_config(2, Strategy::kDssmr, 1));
  preload_and_start(*d, 2);
  // A phantom known only to the oracle: its partition answers retry to every
  // attempt, until the fallback finds it nowhere.
  for (std::size_t r = 0; r < d->config().oracle_replicas; ++r) {
    d->oracle(r).preload(VarId{5}, d->partition_gid(0));
  }
  d->metrics().spans().clear();
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{5})), ReplyCode::kNok);
  EXPECT_EQ(d->metrics().counter("client.retries"), 4u);
  EXPECT_EQ(d->metrics().counter("client.moves"), 0u);
  expect_only_first_consult_direct(consult_routes(*d), 4);
}

TEST(ConsultPath, FirstConsultAfterStaleCacheRetryIsDirect) {
  auto d = traced_deployment(small_config(2, Strategy::kDssmr, 2));
  preload_and_start(*d, 6);
  // Client 0 caches var 1 on partition 1; client 1 then collocates it with
  // vars 0 and 2 on partition 0 (most-held), so client 0's cache is stale.
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{1})), ReplyCode::kOk);
  EXPECT_EQ(run_op(*d, 1, kv_sum({VarId{0}, VarId{2}, VarId{1}}, VarId{0})), ReplyCode::kOk);
  ASSERT_EQ(d->client(0).cached_location(VarId{1}), d->partition_gid(1));

  d->metrics().spans().clear();
  const std::uint64_t retries = d->metrics().counter("client.retries");
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{1})), ReplyCode::kOk);
  EXPECT_EQ(d->metrics().counter("client.retries"), retries + 1);
  // The cache hit was no consult: the command's first consult, after the
  // retry, still reads the leader's mapping directly.
  expect_only_first_consult_direct(consult_routes(*d), 1);
}

TEST(ConsultPath, ReconsultAfterFailedMoveIsOrdered) {
  auto cfg = small_config(2, Strategy::kDssmr, 1);
  cfg.client_max_retries = 1;
  auto d = traced_deployment(cfg);
  d->preload_var(VarId{1}, d->partition_gid(1), kv::KvValue{7, ""});
  // A phantom known only to the oracle: every fused move it prophesies fails.
  for (std::size_t r = 0; r < cfg.oracle_replicas; ++r) {
    d->oracle(r).preload(VarId{5}, d->partition_gid(0));
  }
  d->start();
  d->settle();
  d->metrics().spans().clear();
  EXPECT_EQ(run_op(*d, 0, kv_sum({VarId{1}, VarId{5}}, VarId{1})), ReplyCode::kOk);
  EXPECT_GE(d->metrics().spans().count(stats::InstantKind::kMoveIssued), 1u);
  EXPECT_GE(d->metrics().spans().count(stats::InstantKind::kMoveFailed), 1u);
  expect_only_first_consult_direct(consult_routes(*d), 2);
}

TEST(ConsultPath, ReconsultAfterTimeoutIsOrdered) {
  // Every round trip exceeds the client timeout, so the direct consult times
  // out before its answer arrives and the re-consults are multicast.
  auto cfg = small_config(2, Strategy::kDssmr, 1);
  cfg.client_timeout = msec(15);
  cfg.net.intra_rack_latency = msec(10);
  cfg.net.inter_rack_latency = msec(18);
  auto d = traced_deployment(cfg);
  preload_and_start(*d, 2);
  d->metrics().spans().clear();
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{0})), ReplyCode::kOk);
  d->engine().run_for(sec(1));  // let the re-consults' deliveries land
  EXPECT_GT(d->metrics().counter("client.timeouts"), 0u);
  expect_only_first_consult_direct(consult_routes(*d), 2);
}

TEST(ConsultPath, CreateAndDeleteConsultsAreOrdered) {
  auto d = traced_deployment(small_config(2, Strategy::kDssmr, 1));
  preload_and_start(*d, 2);
  for (const smr::Command& cmd : {make_create(VarId{40}), make_delete(VarId{40})}) {
    d->metrics().spans().clear();
    EXPECT_EQ(run_op(*d, 0, cmd), ReplyCode::kOk);
    const ConsultRoutes routes = consult_routes(*d);
    ASSERT_EQ(routes.sent.size(), 1u);
    EXPECT_TRUE(routes.ordered.contains(routes.sent.front()));
  }
}

TEST(ConsultPath, UnorderedNokIsRecheckedThroughTheLog) {
  auto d = traced_deployment(small_config(2, Strategy::kDssmr, 1));
  preload_and_start(*d, 2);
  d->metrics().spans().clear();
  EXPECT_EQ(run_op(*d, 0, kv_get(VarId{555})), ReplyCode::kNok);
  EXPECT_EQ(d->metrics().counter("client.consults"), 2u);
  EXPECT_EQ(d->metrics().counter("client.retries"), 0u);
  expect_only_first_consult_direct(consult_routes(*d), 2);
}

TEST(ConsultPath, BatchedDirectConsultRidesTheRelay) {
  auto cfg = small_config(2, Strategy::kDssmr, 2);
  cfg.batch_size = 8;
  cfg.batch_delay = usec(200);
  Deployment d{cfg, kv::kv_app_factory(), [] { return std::make_unique<DssmrPolicy>(); }};
  preload_and_start(d, 4);
  ASSERT_EQ(d.relay_count(), 2u);

  ProbingClient probe;
  d.network().add_process(probe, 0);
  probe.init_client_node(d.network(), d.client(0).directory());
  probe.set_batcher(&d.relay(0).batcher());
  const auto before = oracle_deliveries(d);
  const std::uint64_t entries = d.metrics().counter("batch.entries");
  probe.consult_direct(d.oracle_gid(), kv_get(VarId{1}));
  EXPECT_EQ(d.relay(0).batcher().pending_entries(), 1u);
  d.engine().run_for(msec(100));
  EXPECT_EQ(d.metrics().counter("batch.entries"), entries + 1);
  ASSERT_EQ(probe.prophecies.size(), 1u);
  EXPECT_EQ(probe.prophecies.back()->dest, d.partition_gid(1));
  EXPECT_EQ(oracle_deliveries(d), before);

  // The real proxy's first consult takes the same path.
  EXPECT_EQ(run_op(d, 0, kv_get(VarId{3})), ReplyCode::kOk);
  EXPECT_EQ(d.metrics().counter("client.consults"), 1u);
  EXPECT_EQ(oracle_deliveries(d), before);
}

// A deposed oracle leader — cut off from its peers but still reachable by
// clients — keeps answering first consults from a mapping that stops
// advancing. Its prophecies are stale; re-consults go through the log and
// reach the real leader, so histories stay linearizable and every command
// terminates.
TEST(DeposedOracleLeader, StalePropheciesKeepHistoriesLinearizable) {
  constexpr std::size_t kVars = 4;
  auto cfg = small_config(2, Strategy::kDssmr, 3);
  cfg.client_cache = false;  // every command consults
  cfg.spans = true;          // kOracle spans name the answering replica
  Deployment d{cfg, kv::kv_app_factory(), [] { return std::make_unique<DssmrPolicy>(); }};
  lincheck::KvSpec spec;
  for (std::size_t i = 0; i < kVars; ++i) {
    d.preload_var(VarId{i}, d.partition_gid(i % 2), kv::KvValue{0, ""});
    spec.preload(VarId{i}, 0, "");
  }
  d.start();
  d.settle();
  ASSERT_TRUE(d.oracle(0).is_leader());

  fault::Nemesis nem{d, fault::resolve_plan("cut:oracle0|oracle1+oracle2@150ms")};
  const Time cut_time = d.engine().now() + msec(150);
  nem.arm();
  auto history =
      record_history(d, /*ops_per_client=*/12, /*seed=*/31, kVars, /*think=*/msec(40));
  ASSERT_EQ(history.size(), 36u);  // record_history aborts if any op never responds
  EXPECT_TRUE(lincheck::is_linearizable(history, spec));

  // The cut replica kept leading in its own view and answered after the cut.
  EXPECT_TRUE(d.oracle(0).is_leader());
  std::size_t stale_answers = 0;
  for (const stats::Span& s : d.metrics().spans().spans()) {
    if (s.phase == stats::SpanPhase::kOracle && s.node == d.oracle(0).pid().value &&
        s.start >= cut_time) {
      ++stale_answers;
    }
  }
  EXPECT_GE(stale_answers, 1u);
}

// A deposed leader has not applied a create completed through the real
// leader, so its direct answer to an access of that variable is kNok. That
// answer must not end the command: the ordered re-check finds the variable.
TEST(DeposedOracleLeaderCreate, UnorderedNokDoesNotEndAnAccess) {
  auto cfg = small_config(2, Strategy::kDssmr, 2);
  cfg.client_cache = false;
  cfg.spans = true;  // kOracle spans name the answering replica
  Deployment d{cfg, kv::kv_app_factory(), [] { return std::make_unique<DssmrPolicy>(); }};
  d.preload_var(VarId{0}, d.partition_gid(0), kv::KvValue{0, ""});
  d.start();
  d.settle();
  ASSERT_TRUE(d.oracle(0).is_leader());
  const ProcessId o0 = d.oracle(0).pid(), o1 = d.oracle(1).pid(), o2 = d.oracle(2).pid();
  d.network().partition_sets({o0}, {o1, o2}, /*up=*/false);
  d.engine().run_for(sec(1));
  ASSERT_TRUE(d.oracle(1).is_leader() || d.oracle(2).is_leader());
  ASSERT_TRUE(d.oracle(0).is_leader());  // deposed, but unaware of it

  std::vector<lincheck::Operation> history(2);
  history[0].cmd = make_create(VarId{40});
  history[0].invoke = d.engine().now();
  history[0].code = run_op(d, 0, history[0].cmd, &history[0].reply);
  history[0].response = d.engine().now();
  ASSERT_EQ(history[0].code, ReplyCode::kOk);

  // Only the deposed leader's answer reaches client 1 at first.
  const ProcessId c1 = d.client(1).pid();
  d.network().set_link_directed(o1, c1, false);
  d.network().set_link_directed(o2, c1, false);
  const std::uint64_t consults = d.metrics().counter("client.consults");
  bool done = false;
  history[1].client = 1;
  history[1].cmd = kv_get(VarId{40});
  history[1].invoke = d.engine().now();
  d.client(1).issue(history[1].cmd, [&](ReplyCode code, const net::MessagePtr& reply) {
    done = true;
    history[1].code = code;
    history[1].reply = reply;
    history[1].response = d.engine().now();
  });
  while (!done && d.metrics().counter("client.consults") < consults + 2) {
    d.engine().run_for(usec(50));
  }
  d.network().set_link_directed(o1, c1, true);
  d.network().set_link_directed(o2, c1, true);
  const Time deadline = d.engine().now() + sec(5);
  while (!done && d.engine().now() < deadline) d.engine().run_for(msec(5));
  ASSERT_TRUE(done);
  EXPECT_EQ(history[1].code, ReplyCode::kOk);
  std::size_t stale_answers = 0;  // the deposed leader did answer the access
  for (const stats::Span& sp : d.metrics().spans().spans()) {
    if (sp.phase == stats::SpanPhase::kOracle && sp.node == o0.value &&
        sp.start >= history[1].invoke) {
      ++stale_answers;
    }
  }
  EXPECT_EQ(stale_answers, 1u);

  lincheck::KvSpec spec;
  spec.preload(VarId{0}, 0, "");
  EXPECT_TRUE(lincheck::is_linearizable(history, spec));
}

// Followers hold each direct consult and each reply their leader acts on.
// Crashing the oracle's and p0's leaders right after a command finished makes
// the new leaders answer it again, to a client that no longer awaits it:
// nothing changes, neither the outcomes nor the history's verdict.
TEST(LeaderFailover, ReplayedAnswersToAFinishedCommandChangeNothing) {
  constexpr std::size_t kVars = 4;
  auto cfg = small_config(2, Strategy::kDssmr, 1);
  cfg.client_cache = false;  // every command's first consult is direct
  cfg.spans = true;          // kOracle spans count the answers to consults
  Deployment d{cfg, kv::kv_app_factory(), [] { return std::make_unique<DssmrPolicy>(); }};
  lincheck::KvSpec spec;
  for (std::size_t i = 0; i < kVars; ++i) {
    d.preload_var(VarId{i}, d.partition_gid(i % 2), kv::KvValue{0, ""});
    spec.preload(VarId{i}, 0, "");
  }
  d.start();
  d.settle();

  std::vector<lincheck::Operation> history;
  auto op = [&](smr::Command cmd) {
    lincheck::Operation& o = history.emplace_back();
    o.cmd = cmd;
    o.invoke = d.engine().now();
    o.code = run_op(d, 0, std::move(cmd), &o.reply);
    o.response = d.engine().now();
  };
  op(kv_add(VarId{0}, 5));
  for (multicast::GroupNode* group_leader : {static_cast<multicast::GroupNode*>(&d.oracle(0)),
                                             static_cast<multicast::GroupNode*>(&d.server(0, 0))}) {
    ASSERT_TRUE(group_leader->is_leader());
    d.network().crash(group_leader->pid());
    group_leader->halt_node();
  }
  op(kv_get(VarId{0}));
  op(kv_add(VarId{1}, 2));
  op(kv_sum({VarId{0}, VarId{1}}, VarId{2}));
  op(kv_get(VarId{2}));
  d.engine().run_for(sec(1));

  EXPECT_EQ(d.metrics().counter("client.ok"), history.size());
  EXPECT_EQ(d.metrics().counter("client.nok"), 0u);
  EXPECT_TRUE(lincheck::is_linearizable(history, spec));
  EXPECT_EQ(kv_num(history.back().reply), 7);
  // The new oracle leader answered the first command's consult again.
  std::size_t answers = 0;
  for (const stats::Span& sp : d.metrics().spans().spans()) {
    answers += sp.phase == stats::SpanPhase::kOracle ? 1 : 0;
  }
  EXPECT_GT(answers, d.metrics().counter("client.consults"));
}

}  // namespace
}  // namespace dssmr::core
