// Command batching & pipelined consensus: batcher-level behavior over the
// multicast fabric (flush triggers, destination-set union, dedup against
// unbatched submissions), the Paxos pipeline window, and whole-deployment
// guarantees with batching on — linearizability (including across a leader
// kill/recover), span tiling with the batch phase, determinism, and the
// batching-off purity the seed relies on.
#include "multicast/batcher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "consensus/paxos.h"
#include "fault/fault_plan.h"
#include "fault/nemesis.h"
#include "harness/experiment.h"
#include "lincheck/lincheck.h"
#include "smr/kv.h"
#include "stats/run_record.h"
#include "stats/span.h"
#include "testing/cluster.h"
#include "testing/dssmr_fixture.h"
#include "testing/history.h"

namespace dssmr::multicast {
namespace {

using core::Strategy;
using harness::Deployment;
using testing::Fabric;
using testing::IntMsg;
using namespace dssmr::testing;

constexpr GroupId kG0{0};
constexpr GroupId kG1{1};

/// Fabric plus a client-tier BatchRelay wired to client 0.
struct BatchedFabric {
  BatchedFabric(std::size_t groups, BatchConfig bc) : fabric(groups, 3, 2) {
    fabric.network.add_process(relay, 0);
    relay.init_relay(fabric.network, fabric.directory, bc, fabric.metrics);
    fabric.clients[0]->set_batcher(&relay.batcher());
    fabric.engine.run_for(msec(50));  // elect leaders
  }

  Fabric fabric;
  BatchRelay relay;
};

TEST(Batcher, FlushesWhenBatchFills) {
  BatchedFabric b{1, {.batch_size = 2, .batch_delay = msec(10)}};
  const Time t0 = b.fabric.engine.now();
  Time flushed_at = 0;
  b.fabric.clients[0]->amcast_with_id(b.fabric.clients[0]->fresh_id(), {kG0},
                                      net::make_msg<IntMsg>(1),
                                      [&](Time t) { flushed_at = t; });
  EXPECT_EQ(b.relay.batcher().pending_entries(), 1u);
  b.fabric.clients[0]->amcast({kG0}, net::make_msg<IntMsg>(2));
  // Second submission fills the batch: flushed at enqueue time, long before
  // the 10ms delay bound.
  EXPECT_EQ(b.relay.batcher().pending_entries(), 0u);
  EXPECT_EQ(flushed_at, t0);
  b.fabric.engine.run_for(msec(100));
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(b.fabric.node(0, r).amdelivered.size(), 2u) << "replica " << r;
  }
}

TEST(Batcher, FlushesOnDelayBound) {
  BatchedFabric b{1, {.batch_size = 100, .batch_delay = usec(200)}};
  const Time t0 = b.fabric.engine.now();
  Time flushed_at = 0;
  b.fabric.clients[0]->amcast_with_id(b.fabric.clients[0]->fresh_id(), {kG0},
                                      net::make_msg<IntMsg>(3),
                                      [&](Time t) { flushed_at = t; });
  EXPECT_EQ(b.relay.batcher().pending_entries(), 1u);
  b.fabric.engine.run_for(msec(100));
  EXPECT_EQ(flushed_at, t0 + usec(200));
  EXPECT_EQ(b.relay.batcher().pending_entries(), 0u);
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(b.fabric.node(0, r).amdelivered.size(), 1u) << "replica " << r;
  }
}

TEST(Batcher, MultiGroupMulticastIsOneLogicalSubmission) {
  BatchedFabric b{2, {.batch_size = 2, .batch_delay = msec(10)}};
  // One multicast to two groups queues two entries but counts once against
  // the batch size (the batch bound is logical submissions, not fan-out).
  b.fabric.clients[0]->amcast({kG0, kG1}, net::make_msg<IntMsg>(4));
  EXPECT_EQ(b.relay.batcher().pending_entries(), 2u);
  b.fabric.clients[0]->amcast({kG0, kG1}, net::make_msg<IntMsg>(5));
  EXPECT_EQ(b.relay.batcher().pending_entries(), 0u);
  b.fabric.engine.run_for(msec(300));
  for (std::size_t g = 0; g < 2; ++g) {
    for (std::size_t r = 0; r < 3; ++r) {
      EXPECT_EQ(b.fabric.node(g, r).amdelivered.size(), 2u)
          << "group " << g << " replica " << r;
    }
  }
}

TEST(Batcher, BatchedAndUnbatchedSubmissionsDeduplicate) {
  // Client 0 submits through the relay, client 1 re-sends the same multicast
  // id directly (a retransmission racing the batched first send): the derived
  // entry ids must collide so each replica delivers once.
  BatchedFabric b{1, {.batch_size = 1, .batch_delay = usec(100)}};
  const MsgId id = b.fabric.clients[0]->fresh_id();
  b.fabric.clients[0]->amcast_with_id(id, {kG0}, net::make_msg<IntMsg>(6));
  b.fabric.clients[1]->amcast_with_id(id, {kG0}, net::make_msg<IntMsg>(6));
  b.fabric.engine.run_for(msec(200));
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(b.fabric.node(0, r).amdelivered.size(), 1u) << "replica " << r;
  }
}

TEST(Batcher, HaltDropsQueueAndRestartAccepts) {
  BatchedFabric b{1, {.batch_size = 100, .batch_delay = msec(5)}};
  b.fabric.clients[0]->amcast({kG0}, net::make_msg<IntMsg>(7));
  EXPECT_EQ(b.relay.batcher().pending_entries(), 1u);
  b.relay.batcher().halt();
  EXPECT_EQ(b.relay.batcher().pending_entries(), 0u);
  b.fabric.engine.run_for(msec(50));
  for (std::size_t r = 0; r < 3; ++r) EXPECT_TRUE(b.fabric.node(0, r).amdelivered.empty());
  b.relay.batcher().restart();
  b.fabric.clients[0]->amcast({kG0}, net::make_msg<IntMsg>(8));
  b.fabric.engine.run_for(msec(50));
  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_EQ(b.fabric.node(0, r).amdelivered.size(), 1u) << "replica " << r;
  }
}

// ---- Paxos pipeline window --------------------------------------------------

struct PipelineCluster {
  explicit PipelineCluster(consensus::PaxosConfig cfg, std::size_t n = 3,
                           std::uint64_t seed = 5)
      : network(engine, {}, seed) {
    std::vector<ProcessId> members;
    for (std::size_t i = 0; i < n; ++i) {
      auto node = std::make_unique<testing::TestPaxosNode>();
      members.push_back(network.add_process(*node, static_cast<int>(i % 2)));
      nodes.push_back(std::move(node));
    }
    for (std::size_t i = 0; i < n; ++i) {
      nodes[i]->init(network, GroupId{0}, members, cfg, seed + i);
      nodes[i]->core->start();
    }
    engine.run_for(msec(50));  // elect nodes[0]
  }

  sim::Engine engine;
  net::Network network;
  std::vector<std::unique_ptr<testing::TestPaxosNode>> nodes;
};

TEST(Pipeline, WindowBoundsInflightProposals) {
  consensus::PaxosConfig cfg;
  cfg.pipeline_depth = 2;
  cfg.max_batch = 2;
  PipelineCluster c{cfg};
  consensus::PaxosCore& leader = *c.nodes[0]->core;
  ASSERT_TRUE(leader.is_leader());
  for (std::int64_t v = 0; v < 12; ++v) {
    ASSERT_TRUE(leader.submit({MsgId{0x100 + static_cast<std::uint64_t>(v)},
                               net::make_msg<IntMsg>(v)}));
  }
  // 12 entries, window 2, chunks of <= 2: only 2 proposals may be undecided
  // at once; the rest waits in pending_ and re-flushes as decisions land.
  EXPECT_LE(leader.inflight_proposals(), 2u);
  EXPECT_EQ(leader.pending_entries(), 12u - 2u * cfg.max_batch);
  std::size_t max_inflight = 0;
  bool probing = true;
  std::function<void()> probe = [&] {
    if (!probing) return;
    max_inflight = std::max(max_inflight, leader.inflight_proposals());
    c.engine.schedule(usec(20), probe);
  };
  probe();
  c.engine.run_for(msec(200));
  probing = false;
  EXPECT_LE(max_inflight, 2u);
  EXPECT_EQ(leader.inflight_proposals(), 0u);
  EXPECT_EQ(leader.pending_entries(), 0u);
  // Every replica decided all 12 entries, in submission order.
  for (auto& n : c.nodes) {
    ASSERT_EQ(n->decided.size(), 12u);
    for (std::int64_t v = 0; v < 12; ++v) {
      EXPECT_EQ(net::msg_as<IntMsg>(n->decided[static_cast<std::size_t>(v)].payload).value, v);
    }
    EXPECT_TRUE(std::is_sorted(n->decided_slots.begin(), n->decided_slots.end()));
  }
}

TEST(Pipeline, DepthZeroKeepsSingleFlushBehavior) {
  consensus::PaxosConfig cfg;  // pipeline_depth = 0: one slot per flush
  PipelineCluster c{cfg};
  consensus::PaxosCore& leader = *c.nodes[0]->core;
  for (std::int64_t v = 0; v < 6; ++v) {
    ASSERT_TRUE(leader.submit({MsgId{0x200 + static_cast<std::uint64_t>(v)},
                               net::make_msg<IntMsg>(v)}));
  }
  c.engine.run_for(msec(100));
  for (auto& n : c.nodes) {
    ASSERT_EQ(n->decided.size(), 6u);
    // All six entries landed in the same slot: one flush, one proposal.
    EXPECT_EQ(n->decided_slots.front(), n->decided_slots.back());
  }
}

TEST(Pipeline, IdleLeaderProposesWithinTheInstant) {
  consensus::PaxosConfig cfg;
  cfg.batch_delay = msec(10);  // long enough that any wait on it shows
  PipelineCluster c{cfg};
  consensus::PaxosCore& leader = *c.nodes[0]->core;
  ASSERT_TRUE(leader.is_leader());
  // Nothing in flight: a lone entry is proposed at once and decided on every
  // replica within one round trip, not batch_delay later.
  ASSERT_TRUE(leader.submit({MsgId{0x300}, net::make_msg<IntMsg>(0)}));
  c.engine.run_for(msec(1));
  for (auto& n : c.nodes) ASSERT_EQ(n->decided.size(), 1u);
  // A burst within one instant still becomes one slot.
  for (std::int64_t v = 1; v <= 6; ++v) {
    ASSERT_TRUE(leader.submit({MsgId{0x300 + static_cast<std::uint64_t>(v)},
                               net::make_msg<IntMsg>(v)}));
  }
  c.engine.run_for(msec(1));
  for (auto& n : c.nodes) {
    ASSERT_EQ(n->decided.size(), 7u);
    EXPECT_GT(n->decided_slots[1], n->decided_slots[0]);
    EXPECT_EQ(n->decided_slots[1], n->decided_slots.back());
  }
}

TEST(Pipeline, DecisionFlushesBacklogAtDepthZero) {
  consensus::PaxosConfig cfg;  // pipeline_depth = 0
  cfg.batch_delay = msec(10);
  PipelineCluster c{cfg};
  consensus::PaxosCore& leader = *c.nodes[0]->core;
  ASSERT_TRUE(leader.is_leader());
  ASSERT_TRUE(leader.submit({MsgId{0x400}, net::make_msg<IntMsg>(0)}));
  c.engine.run_for(usec(1));
  ASSERT_EQ(leader.inflight_proposals(), 1u);
  // Entries arriving behind an in-flight slot wait for its decision, which
  // proposes them at once, not for the batch timer.
  for (std::int64_t v = 1; v <= 2; ++v) {
    ASSERT_TRUE(leader.submit({MsgId{0x400 + static_cast<std::uint64_t>(v)},
                               net::make_msg<IntMsg>(v)}));
  }
  EXPECT_EQ(leader.pending_entries(), 2u);
  c.engine.run_for(msec(2));
  for (auto& n : c.nodes) {
    ASSERT_EQ(n->decided.size(), 3u);
    EXPECT_GT(n->decided_slots[1], n->decided_slots[0]);
    EXPECT_EQ(n->decided_slots[1], n->decided_slots[2]);
  }
}

// ---- whole-deployment guarantees with batching on ---------------------------

harness::DeploymentConfig batched_config(std::size_t parts, std::size_t clients) {
  auto cfg = small_config(parts, Strategy::kDssmr, clients);
  cfg.batch_size = 8;
  cfg.batch_delay = usec(200);
  cfg.pipeline_depth = 4;
  return cfg;
}

class BatchedLinearizability : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchedLinearizability, ConcurrentHistoriesAreLinearizable) {
  constexpr std::size_t kVars = 5;
  auto cfg = batched_config(2, 4);
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  lincheck::KvSpec spec;
  for (std::size_t i = 0; i < kVars; ++i) {
    d.preload_var(VarId{i}, d.partition_gid(i % 2), kv::KvValue{0, ""});
    spec.preload(VarId{i}, 0, "");
  }
  d.start();
  d.settle();
  EXPECT_EQ(d.relay_count(), 2u);
  auto history = record_history(d, /*ops_per_client=*/8, GetParam(), kVars);
  ASSERT_EQ(history.size(), 32u);
  EXPECT_TRUE(lincheck::is_linearizable(history, spec)) << "seed " << GetParam();
  EXPECT_GT(d.metrics().counter("batch.flushes"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchedLinearizability, ::testing::Values(1, 2, 3, 4, 5));

TEST(BatchedFaults, LeaderKillRecoverSplitsNoBatch) {
  // A batch split across a leader failover must neither duplicate nor drop
  // commands: drive load through the whole leader-kill-recover plan and check
  // the history is linearizable and the deployment consistent afterwards.
  constexpr std::size_t kVars = 6;
  auto cfg = batched_config(2, 3);
  Deployment d{cfg, kv::kv_app_factory(),
               [] { return std::make_unique<core::DssmrPolicy>(); }};
  lincheck::KvSpec spec;
  for (std::size_t i = 0; i < kVars; ++i) {
    d.preload_var(VarId{i}, d.partition_gid(i % 2), kv::KvValue{0, ""});
    spec.preload(VarId{i}, 0, "");
  }
  d.start();
  d.settle();

  fault::Nemesis nem{d, fault::resolve_plan("leader-kill-recover")};
  nem.arm();
  // think-time paces the clients so the kill (120ms) and recovery (700ms)
  // both land while batched commands are in flight.
  auto history = record_history(d, 8, 42, kVars, /*think=*/msec(40));
  ASSERT_EQ(history.size(), 24u);
  EXPECT_TRUE(lincheck::is_linearizable(history, spec));
  d.engine().run_for(sec(1));  // let the 700ms recovery land and drain
  EXPECT_EQ(d.metrics().counter("faults.leader_kills"), 1u);
  EXPECT_EQ(d.metrics().counter("faults.recoveries"), 1u);
  EXPECT_GT(d.metrics().counter("batch.flushes"), 0u);
  EXPECT_TRUE(d.audit_consistency().empty());
}

harness::ChirperRunConfig chirper_batched(std::uint64_t seed) {
  harness::ChirperRunConfig cfg;
  cfg.partitions = 2;
  cfg.clients_per_partition = 3;
  cfg.graph = {.n = 300, .m = 2, .p_triad = 0.8};
  cfg.warmup = msec(100);
  cfg.measure = msec(300);
  cfg.seed = seed;
  cfg.batch_size = 8;
  cfg.batch_delay = usec(200);
  cfg.pipeline_depth = 4;
  return cfg;
}

std::string record_json(const harness::ChirperRunConfig& cfg, const harness::RunResult& r) {
  std::ostringstream os;
  stats::write_run_records(os, "batching_test", {harness::make_run_record(cfg, r)});
  return os.str();
}

TEST(BatchedDeterminism, SameSeedSameRunRecordBytes) {
  const harness::ChirperRunConfig cfg = chirper_batched(77);
  const std::string first = record_json(cfg, harness::run_chirper(cfg));
  const std::string second = record_json(cfg, harness::run_chirper(cfg));
  EXPECT_GT(first.size(), 100u);
  EXPECT_EQ(first, second);
  // The record carries the v5 batching section and the knob metadata.
  EXPECT_NE(first.find("\"batching\""), std::string::npos);
  EXPECT_NE(first.find("\"batch_size\": \"8\""), std::string::npos);
  EXPECT_NE(first.find("\"pipeline_depth\": \"4\""), std::string::npos);
}

TEST(BatchedDeterminism, OffRunsCarryNoBatchingArtifacts) {
  harness::ChirperRunConfig cfg = chirper_batched(78);
  cfg.batch_size = 0;
  cfg.pipeline_depth = 0;
  const std::string json = record_json(cfg, harness::run_chirper(cfg));
  EXPECT_EQ(json.find("\"batching\""), std::string::npos);
  EXPECT_EQ(json.find("batch_size"), std::string::npos);
}

TEST(BatchedSpans, PhasesStillTileEndToEndLatency) {
  harness::ChirperRunConfig cfg = chirper_batched(9);
  cfg.spans = true;
  const harness::RunResult r = harness::run_chirper(cfg);
  const stats::SpanStore& spans = r.metrics.spans();
  EXPECT_GT(spans.count(stats::SpanPhase::kBatch), 0u);
  const stats::SpanQuery q{spans};
  std::size_t finished = 0;
  for (std::uint64_t tid : q.trace_ids()) {
    const stats::Span* root = q.root(tid);
    if (root == nullptr) continue;  // command still in flight at run end
    ++finished;
    EXPECT_EQ(q.attributed_total(tid), root->duration()) << "trace " << tid;
  }
  EXPECT_GT(finished, 0u);
}

}  // namespace
}  // namespace dssmr::multicast
