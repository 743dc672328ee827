// Unit tests of the SMR layer: execution engine, variable store, execution
// view, KV application semantics, and command plumbing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/engine.h"
#include "smr/app.h"
#include "smr/command.h"
#include "smr/execution.h"
#include "smr/kv.h"

namespace dssmr::smr {
namespace {

// ---- ExecutionEngine ----------------------------------------------------------

/// A task with no inputs to wait for that touches `touches`.
ExecutionEngine::Task plain(std::uint64_t id, Duration service, sim::Callback run,
                            std::vector<VarId> touches = {}) {
  return {.id = MsgId{id},
          .awaits = {},
          .touches = std::move(touches),
          .service = service,
          .run = std::move(run)};
}

common::SmallSet<GroupId> groups(std::initializer_list<std::uint32_t> ids) {
  common::SmallSet<GroupId> out;
  for (std::uint32_t g : ids) out.insert(GroupId{g});
  return out;
}

TEST(ExecutionEngine, RunsTasksInOrderWithServiceTime) {
  sim::Engine engine;
  ExecutionEngine exec{engine};
  std::vector<std::pair<int, Time>> finished;
  for (int i = 0; i < 3; ++i) {
    exec.enqueue(plain(static_cast<std::uint64_t>(i), usec(10),
                       [&, i] { finished.emplace_back(i, engine.now()); }));
  }
  engine.run();
  ASSERT_EQ(finished.size(), 3u);
  EXPECT_EQ(finished[0], std::make_pair(0, usec(10)));
  EXPECT_EQ(finished[1], std::make_pair(1, usec(20)));
  EXPECT_EQ(finished[2], std::make_pair(2, usec(30)));
  EXPECT_EQ(exec.busy_time(), usec(30));
  EXPECT_EQ(exec.executed_count(), 3u);
}

TEST(ExecutionEngine, HeadWaitsBlockEverythingBehind) {
  sim::Engine engine;
  ExecutionEngine exec{engine};
  std::vector<int> order;
  exec.enqueue({.id = MsgId{1},
                .awaits = groups({3, 5}),
                .touches = {},
                .service = usec(5),
                .run = [&] { order.push_back(1); }});
  exec.enqueue(plain(2, usec(5), [&] { order.push_back(2); }));
  engine.run_for(msec(1));
  EXPECT_TRUE(order.empty());  // both blocked behind the head
  EXPECT_TRUE(exec.arrive(MsgId{1}, GroupId{5}));
  engine.run_for(msec(1));
  EXPECT_TRUE(order.empty());  // still one group short
  EXPECT_TRUE(exec.arrive(MsgId{1}, GroupId{3}));
  engine.run_for(msec(1));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ExecutionEngine, WhenSettledWaitsOnlyForEarlierTasksThatTouchItsVars) {
  sim::Engine engine;
  ExecutionEngine exec{engine};
  std::vector<std::string> log;
  // Task 1 touches v1 and blocks the queue on group 2's input; task 2 touches
  // v2; task 3, queued after the call below, touches v1 too.
  exec.enqueue({.id = MsgId{1},
                .awaits = groups({2}),
                .touches = {VarId{1}},
                .service = usec(1),
                .run = [&] { log.emplace_back("run 1"); }});
  exec.enqueue(plain(2, usec(1), [&] { log.emplace_back("run 2"); }, {VarId{2}}));
  const std::vector<VarId> v1{VarId{1}}, v2{VarId{2}}, v3{VarId{3}};
  exec.when_settled(v3, [&] { log.emplace_back("v3"); });  // nothing queued touches v3
  EXPECT_EQ(log, (std::vector<std::string>{"v3"}));
  exec.when_settled(v1, [&] { log.emplace_back("v1"); });
  exec.when_settled(v2, [&] { log.emplace_back("v2"); });
  exec.enqueue(plain(3, usec(1), [&] { log.emplace_back("run 3"); }, {VarId{1}}));
  engine.run_for(msec(1));
  EXPECT_EQ(log.size(), 1u);  // the head still waits for group 2
  exec.arrive(MsgId{1}, GroupId{2});
  engine.run_for(msec(1));
  // v1 settles right after task 1, not after task 3 queued behind the call;
  // v2 right after task 2.
  EXPECT_EQ(log, (std::vector<std::string>{"v3", "run 1", "v1", "run 2", "v2", "run 3"}));
  EXPECT_TRUE(exec.idle());
}

/// One shipped variable.
std::vector<std::pair<VarId, std::shared_ptr<const VarValue>>> ship(std::uint64_t v, int num) {
  return {{VarId{v}, std::make_shared<kv::KvValue>(num, "")}};
}

int shipped_num(const ExecutionEngine& exec, std::uint64_t id, std::uint64_t v) {
  const auto& shipped = exec.shipped(MsgId{id});
  auto it = shipped.find(VarId{v});
  if (it == shipped.end()) return -1;
  return static_cast<int>(dynamic_cast<const kv::KvValue&>(*it->second).num);
}

TEST(ExecutionEngine, InputArrivingBeforeItsCommandCounts) {
  sim::Engine engine;
  ExecutionEngine exec{engine};
  EXPECT_TRUE(exec.arrive(MsgId{1}, GroupId{4}, ship(7, 70)));
  bool ran = false;
  exec.enqueue({.id = MsgId{1},
                .awaits = groups({4}),
                .touches = {},
                .service = usec(1),
                .run = [&] {
                  ran = true;
                  EXPECT_EQ(shipped_num(exec, 1, 7), 70);  // shipped before enqueue
                }});
  engine.run_for(msec(1));
  EXPECT_TRUE(ran);
  EXPECT_TRUE(exec.shipped(MsgId{1}).empty());
  // The run dropped the record: a reused id waits for fresh input.
  bool reran = false;
  exec.enqueue({.id = MsgId{1},
                .awaits = groups({4}),
                .touches = {},
                .service = usec(1),
                .run = [&] { reran = true; }});
  engine.run_for(msec(1));
  EXPECT_FALSE(reran);
}

TEST(ExecutionEngine, DuplicateArriveReturnsFalse) {
  sim::Engine engine;
  ExecutionEngine exec{engine};
  EXPECT_TRUE(exec.arrive(MsgId{1}, GroupId{2}, ship(5, 1)));
  // Another replica of group 2: nothing it ships is stored.
  EXPECT_FALSE(exec.arrive(MsgId{1}, GroupId{2}, ship(6, 2)));
  EXPECT_EQ(shipped_num(exec, 1, 6), -1);
  // A later group does not overwrite a variable already shipped.
  EXPECT_TRUE(exec.arrive(MsgId{1}, GroupId{3}, ship(5, 3)));
  EXPECT_EQ(shipped_num(exec, 1, 5), 1);
  exec.forget(MsgId{1});
  EXPECT_TRUE(exec.shipped(MsgId{1}).empty());
  EXPECT_TRUE(exec.arrive(MsgId{1}, GroupId{2}));  // forgotten: new again
}

TEST(ExecutionEngine, PendingFromEnqueueUntilRunReturns) {
  sim::Engine engine;
  ExecutionEngine exec{engine};
  bool pending_in_run = false;
  exec.enqueue({.id = MsgId{1},
                .awaits = groups({2}),
                .touches = {},
                .service = usec(1),
                .run = [&] { pending_in_run = exec.pending(MsgId{1}); }});
  EXPECT_TRUE(exec.pending(MsgId{1}));
  engine.run_for(msec(1));
  EXPECT_TRUE(exec.pending(MsgId{1}));  // waiting for group 2
  EXPECT_FALSE(exec.pending(MsgId{9}));
  exec.arrive(MsgId{1}, GroupId{2});
  engine.run_for(msec(1));
  EXPECT_TRUE(pending_in_run);
  EXPECT_FALSE(exec.pending(MsgId{1}));
  // An input alone does not make a command pending, and id 0 keeps no record.
  exec.arrive(MsgId{3}, GroupId{2});
  EXPECT_FALSE(exec.pending(MsgId{3}));
  exec.enqueue(plain(0, usec(1), [] {}));
  EXPECT_FALSE(exec.pending(MsgId{0}));
}

TEST(ExecutionEngine, ZeroServiceTaskCompletes) {
  sim::Engine engine;
  ExecutionEngine exec{engine};
  bool ran = false;
  exec.enqueue(plain(1, 0, [&] { ran = true; }));
  engine.run_for(usec(1));
  EXPECT_TRUE(ran);
}

TEST(ExecutionEngine, TaskEnqueuedFromRunCallback) {
  sim::Engine engine;
  ExecutionEngine exec{engine};
  std::vector<int> order;
  exec.enqueue(plain(1, usec(1), [&] {
    order.push_back(1);
    exec.enqueue(plain(2, usec(1), [&] { order.push_back(2); }));
  }));
  engine.run_for(msec(1));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// ---- VariableStore / ExecutionView --------------------------------------------

TEST(VariableStore, PutGetTakeErase) {
  VariableStore store;
  EXPECT_FALSE(store.contains(VarId{1}));
  store.put(VarId{1}, std::make_unique<kv::KvValue>(5, "x"));
  ASSERT_TRUE(store.contains(VarId{1}));
  EXPECT_EQ(dynamic_cast<kv::KvValue*>(store.get(VarId{1}))->num, 5);
  EXPECT_FALSE(store.owns(VarId{1}));  // a value alone is not ownership
  auto taken = store.take(VarId{1});
  ASSERT_NE(taken, nullptr);
  EXPECT_FALSE(store.contains(VarId{1}));
  EXPECT_FALSE(store.holds(VarId{1}));
  EXPECT_EQ(store.take(VarId{1}), nullptr);
}

TEST(VariableStore, ClaimReleaseTakeDropsTheSlot) {
  VariableStore store;
  const VarId v{4};
  store.claim(v, MsgId{10});  // owned, value still in flight
  EXPECT_TRUE(store.owns(v));
  EXPECT_TRUE(store.holds(v));
  EXPECT_FALSE(store.contains(v));
  store.put(v, std::make_unique<kv::KvValue>(1, ""));
  EXPECT_TRUE(store.release(v));  // given up, value not yet shipped
  EXPECT_FALSE(store.owns(v));
  EXPECT_TRUE(store.holds(v));
  EXPECT_TRUE(store.contains(v));
  EXPECT_FALSE(store.release(v));  // nothing left to give up
  EXPECT_NE(store.take(v), nullptr);
  EXPECT_FALSE(store.holds(v));  // neither: the slot is gone
  store.claim(v, MsgId{11});
  EXPECT_TRUE(store.release(v));
  EXPECT_FALSE(store.holds(v));  // released with no value: gone too
}

TEST(VariableStore, ReleaseByAnOldClaimIgnoresALaterClaim) {
  VariableStore store;
  const VarId v{4};
  store.claim(v, MsgId{10});
  store.claim(v, MsgId{11});
  EXPECT_FALSE(store.release(v, MsgId{10}));
  EXPECT_TRUE(store.owns(v));
  EXPECT_TRUE(store.release(v, MsgId{11}));
  EXPECT_FALSE(store.owns(v));
}

TEST(VariableStore, OwnedCountAndSortedOwnedVars) {
  VariableStore store;
  for (std::uint64_t v : {9, 3, 5}) store.claim(VarId{v}, MsgId{v});
  store.claim(VarId{3}, MsgId{30});  // a re-claim is not a second variable
  store.put(VarId{1}, std::make_unique<kv::KvValue>(1, ""));  // held, not owned
  EXPECT_EQ(store.owned_count(), 3u);
  EXPECT_EQ(store.owned_vars(), (std::vector<VarId>{VarId{3}, VarId{5}, VarId{9}}));
  store.release(VarId{5});
  EXPECT_EQ(store.owned_count(), 2u);
  EXPECT_EQ(store.owned_vars(), (std::vector<VarId>{VarId{3}, VarId{9}}));
}

TEST(VariableStore, TotalBytesSumsValues) {
  VariableStore store;
  store.put(VarId{1}, std::make_unique<kv::KvValue>(0, "abcd"));
  store.put(VarId{2}, std::make_unique<kv::KvValue>(0, ""));
  EXPECT_EQ(store.total_bytes(), (24 + 4) + 24u);
}

TEST(ExecutionView, PrefersLocalOverBorrowed) {
  VariableStore store;
  store.put(VarId{1}, std::make_unique<kv::KvValue>(10, "local"));
  ExecutionView view{store};
  view.lend(VarId{1}, std::make_unique<kv::KvValue>(99, "remote"));
  view.lend(VarId{2}, std::make_unique<kv::KvValue>(7, "only-remote"));
  EXPECT_EQ(view.get_as<kv::KvValue>(VarId{1})->data, "local");
  EXPECT_EQ(view.get_as<kv::KvValue>(VarId{2})->data, "only-remote");
  EXPECT_TRUE(view.is_local(VarId{1}));
  EXPECT_FALSE(view.is_local(VarId{2}));
  EXPECT_FALSE(view.contains(VarId{3}));
}

TEST(ExecutionView, BorrowedWritesDoNotTouchStore) {
  VariableStore store;
  ExecutionView view{store};
  view.lend(VarId{1}, std::make_unique<kv::KvValue>(1, ""));
  view.get_as<kv::KvValue>(VarId{1})->num = 42;
  EXPECT_FALSE(store.contains(VarId{1}));
}

// ---- KV application -------------------------------------------------------------

TEST(KvApp, GetSetAddSum) {
  kv::KvApp app;
  VariableStore store;
  store.put(VarId{1}, std::make_unique<kv::KvValue>(3, "a"));
  store.put(VarId{2}, std::make_unique<kv::KvValue>(4, "b"));

  ExecutionView view{store};
  Command get;
  get.op = kv::kGet;
  get.read_set = {VarId{1}};
  auto reply = app.execute(get, view);
  EXPECT_EQ(net::msg_as<kv::KvReply>(reply).num, 3);

  Command add;
  add.op = kv::kAdd;
  add.write_set = {VarId{1}};
  add.arg = "-5";
  reply = app.execute(add, view);
  EXPECT_EQ(net::msg_as<kv::KvReply>(reply).num, -2);

  Command sum;
  sum.op = kv::kSumTo;
  sum.read_set = {VarId{1}, VarId{2}};
  sum.write_set = {VarId{2}};
  reply = app.execute(sum, view);
  EXPECT_EQ(net::msg_as<kv::KvReply>(reply).num, 2);
  EXPECT_EQ(dynamic_cast<kv::KvValue*>(store.get(VarId{2}))->num, 2);
}

TEST(KvApp, MissingVariableHandledGracefully) {
  kv::KvApp app;
  VariableStore store;
  ExecutionView view{store};
  Command get;
  get.op = kv::kGet;
  get.read_set = {VarId{404}};
  auto reply = app.execute(get, view);
  EXPECT_EQ(net::msg_as<kv::KvReply>(reply).data, "<missing>");
}

TEST(KvApp, ServiceTimeGrowsWithVars) {
  kv::KvApp app;
  Command small;
  small.op = kv::kGet;
  small.read_set = {VarId{1}};
  Command big = small;
  big.read_set = {VarId{1}, VarId{2}, VarId{3}};
  EXPECT_LT(app.service_time(small), app.service_time(big));
}

// ---- Command ---------------------------------------------------------------------

TEST(Command, VarsIsDedupedUnion) {
  Command c;
  c.read_set = {VarId{3}, VarId{1}};
  c.write_set = {VarId{1}, VarId{2}};
  EXPECT_EQ(c.vars(), (std::vector<VarId>{VarId{1}, VarId{2}, VarId{3}}));
}

TEST(Command, SizeGrowsWithContent) {
  Command small;
  Command big;
  big.read_set = {VarId{1}, VarId{2}};
  big.arg = std::string(100, 'x');
  EXPECT_LT(small.size_bytes(), big.size_bytes());
}

TEST(Command, ToStringCoversAllTypes) {
  EXPECT_STREQ(to_string(CommandType::kAccess), "access");
  EXPECT_STREQ(to_string(CommandType::kCreate), "create");
  EXPECT_STREQ(to_string(CommandType::kDelete), "delete");
  EXPECT_STREQ(to_string(CommandType::kMove), "move");
  EXPECT_STREQ(to_string(ReplyCode::kOk), "ok");
  EXPECT_STREQ(to_string(ReplyCode::kRetry), "retry");
  EXPECT_STREQ(to_string(ReplyCode::kNok), "nok");
  EXPECT_STREQ(to_string(ReplyCode::kRetired), "retired");
  EXPECT_STREQ(to_string(ReplyCode::kNotInvolved), "not_involved");
}

// ---- Moves -----------------------------------------------------------------

TEST(Move, MakeMoveFillsTheMoveFields) {
  const Command m = make_move(MsgId{7}, 42, {VarId{3}, VarId{1}}, {GroupId{2}}, GroupId{0});
  EXPECT_EQ(m.type, CommandType::kMove);
  EXPECT_EQ(m.id, MsgId{7});
  EXPECT_EQ(m.trace_id, 42u);
  EXPECT_EQ(m.vars(), (std::vector<VarId>{VarId{1}, VarId{3}}));
  EXPECT_EQ(m.move_sources, std::vector<GroupId>{GroupId{2}});
  EXPECT_EQ(m.move_dest, GroupId{0});
}

TEST(Move, SingleSourceMoveGoesToSourceDestinationAndOracle) {
  const Command m = make_move(MsgId{1}, 0, {VarId{5}}, {GroupId{3}}, GroupId{1});
  EXPECT_EQ(move_groups(m, GroupId{2}), (std::vector<GroupId>{GroupId{1}, GroupId{2}, GroupId{3}}));
}

TEST(VarShipMsg, SizeIncludesValues) {
  std::vector<std::pair<VarId, std::shared_ptr<const VarValue>>> vars;
  vars.emplace_back(VarId{1}, std::make_shared<kv::KvValue>(0, std::string(100, 'y')));
  VarShipMsg ship{MsgId{1}, GroupId{0}, std::move(vars)};
  EXPECT_GT(ship.size_bytes(), 100u);
}

}  // namespace
}  // namespace dssmr::smr
