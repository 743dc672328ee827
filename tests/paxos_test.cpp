#include "consensus/paxos.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/network.h"
#include "sim/engine.h"
#include "testing/cluster.h"

namespace dssmr::consensus {
namespace {

using testing::IntMsg;
using testing::TestPaxosNode;

struct PaxosCluster {
  explicit PaxosCluster(std::size_t n, double drop = 0.0, std::uint64_t seed = 5,
                        PaxosConfig cfg = {})
      : network(engine, make_net(drop), seed) {
    std::vector<ProcessId> members;
    for (std::size_t i = 0; i < n; ++i) {
      auto node = std::make_unique<TestPaxosNode>();
      members.push_back(network.add_process(*node, static_cast<int>(i % 2)));
      nodes.push_back(std::move(node));
    }
    for (std::size_t i = 0; i < n; ++i) {
      nodes[i]->init(network, GroupId{0}, members, cfg, seed + i);
      nodes[i]->core->start();
    }
  }

  static net::NetworkConfig make_net(double drop) {
    net::NetworkConfig c;
    c.drop_probability = drop;
    return c;
  }

  /// Submits through whichever node currently leads; retries until accepted.
  MsgId submit(std::int64_t value, std::uint64_t salt = 0) {
    const MsgId id{0x1000 + static_cast<std::uint64_t>(value) + (salt << 40)};
    for (auto& n : nodes) {
      if (n->core->is_leader() && n->core->submit({id, net::make_msg<IntMsg>(value)})) {
        return id;
      }
    }
    return MsgId{0};  // nobody leads yet
  }

  sim::Engine engine;
  net::Network network;
  std::vector<std::unique_ptr<TestPaxosNode>> nodes;
};

TEST(Paxos, ElectsInitialLeader) {
  PaxosCluster c{3};
  c.engine.run_for(msec(50));
  EXPECT_TRUE(c.nodes[0]->core->is_leader());
  EXPECT_FALSE(c.nodes[1]->core->is_leader());
  EXPECT_FALSE(c.nodes[2]->core->is_leader());
  for (auto& n : c.nodes) EXPECT_EQ(n->core->leader_hint(), c.nodes[0]->core->members()[0]);
}

TEST(Paxos, DecidesSubmittedValueEverywhere) {
  PaxosCluster c{3};
  c.engine.run_for(msec(50));
  c.submit(7);
  c.engine.run_for(msec(50));
  for (auto& n : c.nodes) {
    ASSERT_EQ(n->decided.size(), 1u);
    EXPECT_EQ(net::msg_as<IntMsg>(n->decided[0].payload).value, 7);
  }
}

TEST(Paxos, NonLeaderRejectsSubmit) {
  PaxosCluster c{3};
  c.engine.run_for(msec(50));
  EXPECT_FALSE(c.nodes[1]->core->submit({MsgId{1}, net::make_msg<IntMsg>(1)}));
}

/// Crashes the current leader, node 0, and runs until a survivor took over.
TestPaxosNode* crash_leader(PaxosCluster& c) {
  c.network.crash(c.nodes[0]->core->members()[0]);
  c.nodes[0]->core->halt();
  c.engine.run_for(msec(800));
  for (std::size_t r = 1; r < c.nodes.size(); ++r) {
    if (c.nodes[r]->core->is_leader()) return c.nodes[r].get();
  }
  return nullptr;
}

TEST(Paxos, SubmissionsHeldByFollowersSurviveTheirLeader) {
  // k submissions reach only the followers: their copies to the leader were
  // lost with it. Nobody re-submits; the new leader proposes what it held.
  PaxosCluster c{3};
  c.engine.run_for(msec(50));
  ASSERT_TRUE(c.nodes[0]->core->is_leader());
  constexpr int kEntries = 5;
  for (int i = 0; i < kEntries; ++i) {
    const LogEntry e{MsgId{0x2000u + static_cast<std::uint64_t>(i)}, net::make_msg<IntMsg>(i)};
    EXPECT_FALSE(c.nodes[1]->core->submit(e));
    EXPECT_FALSE(c.nodes[2]->core->submit(e));
  }
  EXPECT_EQ(c.nodes[1]->core->held_entries(), static_cast<std::size_t>(kEntries));

  ASSERT_NE(crash_leader(c), nullptr);
  for (std::size_t r = 1; r < 3; ++r) {
    ASSERT_EQ(c.nodes[r]->decided.size(), static_cast<std::size_t>(kEntries)) << "replica " << r;
    for (int i = 0; i < kEntries; ++i) {  // in arrival order
      EXPECT_EQ(net::msg_as<IntMsg>(c.nodes[r]->decided[i].payload).value, i);
    }
    EXPECT_EQ(c.nodes[r]->core->held_entries(), 0u);
  }
}

TEST(Paxos, DecideDropsTheHeldCopyOnEveryReplica) {
  PaxosCluster c{3};
  c.engine.run_for(msec(50));
  const LogEntry e{MsgId{0x3000}, net::make_msg<IntMsg>(1)};
  c.nodes[1]->core->submit(e);
  c.nodes[2]->core->submit(e);
  c.nodes[0]->core->submit(e);
  c.engine.run_for(msec(50));
  for (auto& n : c.nodes) {
    ASSERT_EQ(n->decided.size(), 1u);
    EXPECT_EQ(n->core->held_entries(), 0u);
  }
  // So a later leader proposes nothing twice.
  ASSERT_NE(crash_leader(c), nullptr);
  for (std::size_t r = 1; r < 3; ++r) EXPECT_EQ(c.nodes[r]->decided.size(), 1u);
}

TEST(Paxos, EntryHeldAfterItsDecideIsProposedAgainByTheNextLeader) {
  // A copy that reaches the followers only after its slot was decided is
  // held like any other (they cannot tell), and the next leader proposes it
  // again. The log then carries the entry twice; the multicast layer drops
  // the duplicate at delivery (Amcast.LateSubmissionToFollowersDeliversOnce).
  PaxosCluster c{3};
  c.engine.run_for(msec(50));
  const MsgId id = c.submit(7);
  c.engine.run_for(msec(50));
  for (std::size_t r = 1; r < 3; ++r) c.nodes[r]->core->submit({id, net::make_msg<IntMsg>(7)});
  ASSERT_NE(crash_leader(c), nullptr);
  for (std::size_t r = 1; r < 3; ++r) {
    ASSERT_EQ(c.nodes[r]->decided.size(), 2u);
    EXPECT_EQ(c.nodes[r]->decided[1].id, id);
  }
}

TEST(Paxos, HeldWindowKeepsTheLatestArrivals) {
  // A follower holds the last 4096 arrivals; one more evicts the oldest.
  PaxosCluster c{3};
  c.engine.run_for(msec(50));
  constexpr std::uint64_t kWindow = 4096;
  for (std::uint64_t i = 0; i <= kWindow; ++i) {
    const LogEntry e{MsgId{0x10000 + i}, net::make_msg<IntMsg>(static_cast<std::int64_t>(i))};
    c.nodes[1]->core->submit(e);
    c.nodes[2]->core->submit(e);
  }
  EXPECT_EQ(c.nodes[1]->core->held_entries(), kWindow);
  ASSERT_NE(crash_leader(c), nullptr);
  for (std::size_t r = 1; r < 3; ++r) {
    ASSERT_EQ(c.nodes[r]->decided.size(), kWindow);
    EXPECT_EQ(net::msg_as<IntMsg>(c.nodes[r]->decided.front().payload).value, 1);
  }
}

TEST(Paxos, HaltDropsHeldEntries) {
  PaxosCluster c{3};
  c.engine.run_for(msec(50));
  c.nodes[1]->core->submit({MsgId{0x4000}, net::make_msg<IntMsg>(1)});
  ASSERT_EQ(c.nodes[1]->core->held_entries(), 1u);
  c.nodes[1]->core->halt();
  EXPECT_EQ(c.nodes[1]->core->held_entries(), 0u);
  EXPECT_FALSE(c.nodes[1]->core->submit({MsgId{0x4001}, net::make_msg<IntMsg>(2)}));
  EXPECT_EQ(c.nodes[1]->core->held_entries(), 0u);  // a halted replica takes nothing
}

TEST(Paxos, AllReplicasDeliverSameSequence) {
  PaxosCluster c{3};
  c.engine.run_for(msec(50));
  for (int i = 0; i < 50; ++i) {
    c.engine.schedule(usec(i * 100), [&, i] { c.submit(i); });
  }
  c.engine.run_for(msec(200));
  ASSERT_EQ(c.nodes[0]->decided.size(), 50u);
  for (std::size_t r = 1; r < 3; ++r) {
    ASSERT_EQ(c.nodes[r]->decided.size(), 50u);
    for (std::size_t i = 0; i < 50; ++i) {
      EXPECT_EQ(c.nodes[r]->decided[i].id, c.nodes[0]->decided[i].id);
    }
  }
}

TEST(Paxos, BatchesManySubmissionsIntoFewSlots) {
  PaxosCluster c{3};
  c.engine.run_for(msec(50));
  for (int i = 0; i < 64; ++i) c.submit(i);  // all at the same instant
  c.engine.run_for(msec(50));
  ASSERT_EQ(c.nodes[0]->decided.size(), 64u);
  // With max_batch = 64 these should occupy very few slots.
  EXPECT_LE(c.nodes[0]->decided_slots.back(), 3u);
}

TEST(Paxos, KeepsSingleFlushBehavior) {
  PaxosCluster c{3};
  c.engine.run_for(msec(50));  // elect nodes[0]
  PaxosCore& leader = *c.nodes[0]->core;
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

PaxosConfig slow_batch_timer() {
  PaxosConfig cfg;
  cfg.batch_delay = msec(10);  // long enough that any wait on it shows
  return cfg;
}

TEST(Paxos, IdleLeaderProposesWithinTheInstant) {
  PaxosCluster c{3, 0.0, 5, slow_batch_timer()};
  c.engine.run_for(msec(50));  // elect nodes[0]
  PaxosCore& leader = *c.nodes[0]->core;
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

TEST(Paxos, DecisionFlushesBacklog) {
  PaxosCluster c{3, 0.0, 5, slow_batch_timer()};
  c.engine.run_for(msec(50));  // elect nodes[0]
  PaxosCore& leader = *c.nodes[0]->core;
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

TEST(Paxos, DuplicateEntryIdsDedupAtLeader) {
  PaxosCluster c{3};
  c.engine.run_for(msec(50));
  const MsgId id = c.submit(42);
  c.nodes[0]->core->submit({id, net::make_msg<IntMsg>(42)});  // duplicate
  c.engine.run_for(msec(50));
  EXPECT_EQ(c.nodes[0]->decided.size(), 1u);
}

TEST(Paxos, SurvivesLeaderCrash) {
  PaxosCluster c{3};
  c.engine.run_for(msec(50));
  c.submit(1);
  c.engine.run_for(msec(50));

  // Crash the leader; a follower must take over.
  c.network.crash(c.nodes[0]->core->members()[0]);
  c.nodes[0]->core->halt();
  c.engine.run_for(msec(800));

  TestPaxosNode* leader = nullptr;
  for (auto& n : c.nodes) {
    if (&*n != c.nodes[0].get() && n->core->is_leader()) leader = n.get();
  }
  ASSERT_NE(leader, nullptr);

  leader->core->submit({MsgId{0x999}, net::make_msg<IntMsg>(2)});
  c.engine.run_for(msec(100));
  for (std::size_t r = 1; r < 3; ++r) {
    ASSERT_EQ(c.nodes[r]->decided.size(), 2u) << "replica " << r;
    EXPECT_EQ(net::msg_as<IntMsg>(c.nodes[r]->decided[0].payload).value, 1);
    EXPECT_EQ(net::msg_as<IntMsg>(c.nodes[r]->decided[1].payload).value, 2);
  }
}

TEST(Paxos, NewLeaderPreservesDecidedPrefix) {
  PaxosCluster c{3};
  c.engine.run_for(msec(50));
  for (int i = 0; i < 10; ++i) c.submit(i);
  c.engine.run_for(msec(50));
  auto prefix = c.nodes[1]->decided;

  c.network.crash(c.nodes[0]->core->members()[0]);
  c.nodes[0]->core->halt();
  c.engine.run_for(msec(800));

  // Submit through the new leader.
  for (auto& n : c.nodes) {
    if (n->core->is_leader()) n->core->submit({MsgId{0x777}, net::make_msg<IntMsg>(99)});
  }
  c.engine.run_for(msec(100));

  for (std::size_t r = 1; r < 3; ++r) {
    ASSERT_GE(c.nodes[r]->decided.size(), prefix.size());
    for (std::size_t i = 0; i < prefix.size(); ++i) {
      EXPECT_EQ(c.nodes[r]->decided[i].id, prefix[i].id) << "replica " << r << " slot " << i;
    }
  }
}

TEST(Paxos, NewLeaderReproposesSlotDecidedOnlyAboveAGap) {
  // Replica 1 decides slot 2 but never hears of slot 1, so slot 2 sits
  // undelivered above a gap; replica 2 holds slot 1 only. Once the leader
  // crashes, slot 2's value survives only in replica 1's decided log (its
  // accepted copy was dropped at decision), and phase 1 must still report it.
  PaxosCluster c{3};
  c.engine.run_for(msec(50));
  ASSERT_TRUE(c.nodes[0]->core->is_leader());
  const ProcessId p0 = c.nodes[0]->core->members()[0];
  const ProcessId p1 = c.nodes[0]->core->members()[1];
  const ProcessId p2 = c.nodes[0]->core->members()[2];

  c.network.set_link(p0, p1, false);
  const MsgId a = c.submit(1);
  c.engine.run_for(msec(5));
  c.network.set_link(p0, p1, true);
  c.network.set_link(p0, p2, false);
  const MsgId b = c.submit(2);
  c.engine.run_for(msec(5));
  ASSERT_EQ(c.nodes[0]->decided_slots, (std::vector<Slot>{1, 2}));
  ASSERT_TRUE(c.nodes[1]->decided.empty());  // slot 2 decided, blocked on slot 1
  ASSERT_EQ(c.nodes[2]->decided.size(), 1u);

  c.network.crash(p0);
  c.nodes[0]->core->halt();
  c.network.set_link(p0, p2, true);
  c.engine.run_for(msec(800));

  for (std::size_t r = 1; r < 3; ++r) {
    ASSERT_EQ(c.nodes[r]->decided.size(), 2u) << "replica " << r;
    EXPECT_EQ(c.nodes[r]->decided[0].id, a) << "replica " << r;
    EXPECT_EQ(c.nodes[r]->decided[1].id, b) << "replica " << r;
    EXPECT_EQ(c.nodes[r]->decided_slots, (std::vector<Slot>{1, 2})) << "replica " << r;
  }
}

/// Member 1 of a 3-member group with no network: the test feeds it
/// messages by hand and reads back what it sends and delivers.
struct ScriptedFollower {
  static constexpr Slot kRetain = 4;

  ScriptedFollower() {
    PaxosConfig cfg;
    cfg.retain_window = kRetain;
    PaxosCore::Callbacks cb;
    cb.send = [this](ProcessId to, net::MessagePtr m) {
      if (const auto* c = net::msg_cast<CommitMsg>(m); c != nullptr && to == kPeer) {
        served.push_back(c->slot);
      }
    };
    cb.on_decide = [this](Slot slot, const Batch& batch) {
      delivered.push_back(slot);
      ASSERT_EQ(batch.size(), 1u);
      delivered_ids.push_back(batch[0].id);
    };
    core = std::make_unique<PaxosCore>(engine, GroupId{0}, members, members[1], cfg, cb, 1);
  }

  /// The leader's commit of `slot`, carrying entry id `slot`.
  void commit(Slot slot) {
    Batch batch{{MsgId{slot}, net::make_msg<IntMsg>(static_cast<std::int64_t>(slot))}};
    core->handle(kLeader, net::make_msg<CommitMsg>(GroupId{0}, slot,
                                                    std::make_shared<const Batch>(std::move(batch))));
  }

  /// The slots this follower sends back for a catch-up request from `from`.
  std::vector<Slot> serve(Slot from) {
    served.clear();
    core->handle(kPeer, net::make_msg<LearnReq>(GroupId{0}, from));
    return served;
  }

  static constexpr ProcessId kLeader{0};
  static constexpr ProcessId kPeer{2};
  std::vector<ProcessId> members{kLeader, ProcessId{1}, kPeer};
  sim::Engine engine;
  std::unique_ptr<PaxosCore> core;
  std::vector<Slot> delivered;
  std::vector<MsgId> delivered_ids;
  std::vector<Slot> served;
};

TEST(Paxos, KeepsEverySlotDecidedAboveAGapWiderThanTheRetainWindow) {
  ScriptedFollower f;
  // Slots 2..11 decide while slot 1 is missing: ten slots above the gap,
  // far more than the four-slot retain window.
  for (Slot s = 2; s <= 11; ++s) f.commit(s);
  EXPECT_TRUE(f.delivered.empty());
  EXPECT_EQ(f.core->delivered_upto(), 0u);

  f.commit(1);
  std::vector<Slot> all;
  std::vector<MsgId> ids;
  for (Slot s = 1; s <= 11; ++s) {
    all.push_back(s);
    ids.push_back(MsgId{s});
  }
  EXPECT_EQ(f.delivered, all);
  EXPECT_EQ(f.delivered_ids, ids);
  EXPECT_EQ(f.core->delivered_upto(), 11u);

  // A late duplicate of a delivered slot changes nothing.
  f.commit(5);
  EXPECT_EQ(f.delivered.size(), 11u);
}

TEST(Paxos, LearnReqAfterTrimServesExactlyTheRetainWindow) {
  ScriptedFollower f;
  for (Slot s = 1; s <= 10; ++s) f.commit(s);
  ASSERT_EQ(f.core->delivered_upto(), 10u);
  // Delivered 1..10, retain window 4: slots 7..10 are kept, 6 is trimmed.
  EXPECT_EQ(f.serve(1), (std::vector<Slot>{7, 8, 9, 10}));
  EXPECT_EQ(f.serve(6), (std::vector<Slot>{7, 8, 9, 10}));
  EXPECT_EQ(f.serve(7), (std::vector<Slot>{7, 8, 9, 10}));
  EXPECT_EQ(f.serve(8), (std::vector<Slot>{8, 9, 10}));
  EXPECT_EQ(f.serve(10), (std::vector<Slot>{10}));
  EXPECT_TRUE(f.serve(11).empty());

  // A slot decided above a gap is not served: only delivered slots are.
  f.commit(12);
  EXPECT_EQ(f.serve(9), (std::vector<Slot>{9, 10}));
  f.commit(11);
  EXPECT_EQ(f.serve(1), (std::vector<Slot>{9, 10, 11, 12}));
}

TEST(Paxos, MakesProgressUnderMessageLoss) {
  PaxosCluster c{3, /*drop=*/0.10, /*seed=*/11};
  c.engine.run_for(msec(300));
  int accepted = 0;
  for (int i = 0; i < 20; ++i) {
    c.engine.schedule(msec(i * 5), [&, i] {
      if (c.submit(i, static_cast<std::uint64_t>(i)) != MsgId{0}) ++accepted;
    });
  }
  c.engine.run_for(sec(3));
  // Everything the leader accepted must eventually decide on live replicas.
  for (auto& n : c.nodes) {
    EXPECT_EQ(static_cast<int>(n->decided.size()), accepted);
  }
  EXPECT_GT(accepted, 0);
}

TEST(Paxos, FiveReplicaClusterDecides) {
  PaxosCluster c{5};
  c.engine.run_for(msec(50));
  c.submit(123);
  c.engine.run_for(msec(100));
  for (auto& n : c.nodes) ASSERT_EQ(n->decided.size(), 1u);
}

TEST(Paxos, SingleReplicaDegenerateGroup) {
  PaxosCluster c{1};
  c.engine.run_for(msec(50));
  c.submit(5);
  c.engine.run_for(msec(50));
  ASSERT_EQ(c.nodes[0]->decided.size(), 1u);
}

}  // namespace
}  // namespace dssmr::consensus
