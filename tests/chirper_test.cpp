// Chirper application semantics, from unit level (UserValue) to full-stack
// (posts fanned out across partitions under DS-SMR).
#include "chirper/chirper.h"

#include <gtest/gtest.h>

#include "harness/deployment.h"
#include "testing/dssmr_fixture.h"

namespace dssmr::chirper {
namespace {

using core::Strategy;
using harness::Deployment;
using smr::ReplyCode;
using namespace dssmr::testing;

PostPtr shared_post(VarId author, std::uint64_t seq, std::string text) {
  return std::make_shared<const Post>(Post{author, seq, std::move(text)});
}

TEST(UserValue, TimelineCapEnforced) {
  UserValue u;
  EXPECT_EQ(u.timeline.size(), 0u);
  // Past the cap the ring overwrites its oldest post; 2.5 caps wraps it twice.
  const std::uint64_t total = 2 * kTimelineCap + kTimelineCap / 2;
  for (std::uint64_t i = 0; i < total; ++i) {
    u.timeline.push(shared_post(VarId{1}, i, "x"));
    ASSERT_EQ(u.timeline.size(), std::min<std::size_t>(i + 1, kTimelineCap));
    ASSERT_EQ(u.timeline.back().seq, i);
  }
  EXPECT_EQ(u.timeline.size(), kTimelineCap);
  EXPECT_EQ(u.timeline.front().seq, total - kTimelineCap);  // oldest were evicted
  EXPECT_EQ(u.timeline.back().seq, total - 1);
  for (std::size_t i = 0; i < kTimelineCap; ++i) {
    EXPECT_EQ(u.timeline[i].seq, total - kTimelineCap + i) << "index " << i;
  }
  const std::vector<PostPtr> posts = u.timeline.posts();
  ASSERT_EQ(posts.size(), kTimelineCap);
  for (std::size_t i = 0; i < kTimelineCap; ++i) {
    EXPECT_EQ(posts[i].get(), &u.timeline[i]) << "index " << i;
  }
}

TEST(UserValue, SizeOfWrappedTimelineChargesEachPost) {
  UserValue u;
  u.followers = {VarId{1}, VarId{2}, VarId{3}};
  u.following = {VarId{4}};
  std::vector<std::string> texts;
  for (std::uint64_t i = 0; i < kTimelineCap + 7; ++i) {
    texts.push_back(std::string(i % 13, 'a'));
    u.timeline.push(shared_post(VarId{1}, i, texts.back()));
  }
  // The per-post formula over the newest kTimelineCap posts.
  std::size_t expected = 64 + 4 * 8;
  for (std::size_t i = texts.size() - kTimelineCap; i < texts.size(); ++i) {
    expected += 24 + texts[i].size();
  }
  EXPECT_EQ(u.size_bytes(), expected);
}

TEST(UserValue, CloneIsDeep) {
  UserValue u;
  u.followers = {VarId{1}, VarId{2}};
  u.timeline.push(shared_post(VarId{9}, 1, "hello"));
  auto c = u.clone();
  auto* cu = dynamic_cast<UserValue*>(c.get());
  ASSERT_NE(cu, nullptr);
  cu->followers.push_back(VarId{3});
  cu->timeline.push(shared_post(VarId{9}, 2, "world"));
  EXPECT_EQ(u.followers.size(), 2u);
  ASSERT_EQ(u.timeline.size(), 1u);
  EXPECT_EQ(u.timeline.back().text, "hello");
  EXPECT_EQ(cu->timeline.size(), 2u);
  EXPECT_EQ(cu->timeline.back().text, "world");
}

TEST(ChirperApp, PostFanOutSharesOnePostAcrossTimelines) {
  // Executes post(0) with followers 1..k straight against a view, then
  // checks every follower's timeline holds the very same post object.
  constexpr std::size_t k = 5;
  std::vector<VarId> followers;
  for (std::size_t f = 1; f <= k; ++f) followers.push_back(VarId{f});
  smr::Command cmd = make_post(VarId{0}, followers, "shared");
  cmd.id = MsgId{77};

  smr::VariableStore vars;
  for (std::size_t u = 0; u <= k; ++u) vars.put(VarId{u}, std::make_unique<UserValue>());
  smr::ExecutionView view{vars};
  ChirperApp app;
  app.execute(cmd, view);

  const Post& first = view.get_as<UserValue>(VarId{0})->timeline.back();
  EXPECT_EQ(first.text, "shared");
  EXPECT_EQ(first.seq, 77u);
  for (std::size_t u = 1; u <= k; ++u) {
    const UserValue& user = *view.get_as<UserValue>(VarId{u});
    ASSERT_EQ(user.timeline.size(), 1u);
    EXPECT_EQ(&user.timeline.back(), &first) << "follower " << u;
  }

  // A timeline read shares the same object too.
  smr::Command read = make_get_timeline(VarId{3});
  const net::MessagePtr reply = app.execute(read, view);
  const auto& posts = net::msg_as<TimelineReply>(reply).posts;
  ASSERT_EQ(posts.size(), 1u);
  EXPECT_EQ(posts[0].get(), &first);
}

TEST(CommandBuilders, PostIncludesFollowersOnce) {
  auto cmd = make_post(VarId{1}, {VarId{2}, VarId{1}, VarId{3}}, "hi");
  EXPECT_EQ(cmd.write_set, (std::vector<VarId>{VarId{1}, VarId{2}, VarId{3}}));
  EXPECT_EQ(cmd.arg, "hi");
}

TEST(CommandBuilders, FollowCarriesHintEdge) {
  auto cmd = make_follow(VarId{4}, VarId{7});
  ASSERT_EQ(cmd.hint_edges.size(), 1u);
  EXPECT_EQ(cmd.hint_edges[0].first, VarId{4});
  EXPECT_EQ(cmd.hint_edges[0].second, VarId{7});
}

// ---- full-stack -------------------------------------------------------------

std::unique_ptr<Deployment> chirper_deployment(std::size_t partitions, Strategy strategy,
                                               std::size_t users = 8) {
  auto cfg = small_config(partitions, strategy);
  auto d = std::make_unique<Deployment>(cfg, chirper_app_factory(),
                                        [] { return std::make_unique<core::DssmrPolicy>(); });
  for (std::size_t u = 0; u < users; ++u) {
    d->preload_var(VarId{u}, d->partition_gid(u % partitions), UserValue{});
  }
  d->start();
  d->settle();
  return d;
}

const TimelineReply& as_timeline(const net::MessagePtr& m) {
  return net::msg_as<TimelineReply>(m);
}

TEST(ChirperE2E, PostAppearsInOwnTimeline) {
  auto d = chirper_deployment(2, Strategy::kDssmr);
  EXPECT_EQ(run_op(*d, 0, make_post(VarId{0}, {}, "first!")), ReplyCode::kOk);
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 1, make_get_timeline(VarId{0}), &reply), ReplyCode::kOk);
  ASSERT_EQ(as_timeline(reply).posts.size(), 1u);
  EXPECT_EQ(as_timeline(reply).posts[0]->text, "first!");
  EXPECT_EQ(as_timeline(reply).posts[0]->author, VarId{0});
}

TEST(ChirperE2E, PostFansOutToFollowersAcrossPartitions) {
  auto d = chirper_deployment(2, Strategy::kDssmr);
  // User 1 (partition 1) follows user 0 (partition 0).
  EXPECT_EQ(run_op(*d, 0, make_follow(VarId{1}, VarId{0})), ReplyCode::kOk);
  // User 0 posts; the write set spans both users -> move + single-partition exec.
  EXPECT_EQ(run_op(*d, 0, make_post(VarId{0}, {VarId{1}}, "fanout")), ReplyCode::kOk);
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 1, make_get_timeline(VarId{1}), &reply), ReplyCode::kOk);
  ASSERT_EQ(as_timeline(reply).posts.size(), 1u);
  EXPECT_EQ(as_timeline(reply).posts[0]->text, "fanout");
  // DS-SMR collocated poster and follower.
  EXPECT_EQ(d->oracle(0).mapping().locate(VarId{0}), d->oracle(0).mapping().locate(VarId{1}));
}

TEST(ChirperE2E, FollowThenUnfollowUpdatesLinks) {
  auto d = chirper_deployment(2, Strategy::kDssmr);
  EXPECT_EQ(run_op(*d, 0, make_follow(VarId{2}, VarId{3})), ReplyCode::kOk);
  EXPECT_EQ(run_op(*d, 0, make_unfollow(VarId{2}, VarId{3})), ReplyCode::kOk);
  // Post by 3 should now reach only 3's own timeline.
  EXPECT_EQ(run_op(*d, 0, make_post(VarId{3}, {}, "alone")), ReplyCode::kOk);
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 1, make_get_timeline(VarId{2}), &reply), ReplyCode::kOk);
  EXPECT_TRUE(as_timeline(reply).posts.empty());
}

TEST(ChirperE2E, TimelineOrderIsPostOrder) {
  auto d = chirper_deployment(2, Strategy::kDssmr);
  EXPECT_EQ(run_op(*d, 0, make_post(VarId{0}, {}, "one")), ReplyCode::kOk);
  EXPECT_EQ(run_op(*d, 0, make_post(VarId{0}, {}, "two")), ReplyCode::kOk);
  EXPECT_EQ(run_op(*d, 0, make_post(VarId{0}, {}, "three")), ReplyCode::kOk);
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 0, make_get_timeline(VarId{0}), &reply), ReplyCode::kOk);
  const auto& posts = as_timeline(reply).posts;
  ASSERT_EQ(posts.size(), 3u);
  EXPECT_EQ(posts[0]->text, "one");
  EXPECT_EQ(posts[1]->text, "two");
  EXPECT_EQ(posts[2]->text, "three");
}

TEST(ChirperE2E, WorksUnderStaticSsmrToo) {
  auto d = chirper_deployment(2, Strategy::kStaticSsmr);
  // Cross-partition post executes as an S-SMR multi-partition command.
  EXPECT_EQ(run_op(*d, 0, make_post(VarId{0}, {VarId{1}}, "static")), ReplyCode::kOk);
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 1, make_get_timeline(VarId{1}), &reply), ReplyCode::kOk);
  ASSERT_EQ(as_timeline(reply).posts.size(), 1u);
  EXPECT_EQ(as_timeline(reply).posts[0]->text, "static");
  // No moves under the static scheme; users stay put.
  EXPECT_TRUE(d->server(0, 0).owns(VarId{0}));
  EXPECT_TRUE(d->server(1, 0).owns(VarId{1}));
}

TEST(ChirperE2E, TimelineOfUnknownUserIsNok) {
  auto d = chirper_deployment(2, Strategy::kDssmr);
  EXPECT_EQ(run_op(*d, 0, make_get_timeline(VarId{404})), ReplyCode::kNok);
}

TEST(ChirperE2E, NewUserViaCreate) {
  auto d = chirper_deployment(2, Strategy::kDssmr);
  EXPECT_EQ(run_op(*d, 0, make_create(VarId{100})), ReplyCode::kOk);
  EXPECT_EQ(run_op(*d, 0, make_follow(VarId{100}, VarId{0})), ReplyCode::kOk);
  EXPECT_EQ(run_op(*d, 0, make_post(VarId{0}, {VarId{100}}, "welcome")), ReplyCode::kOk);
  net::MessagePtr reply;
  EXPECT_EQ(run_op(*d, 0, make_get_timeline(VarId{100}), &reply), ReplyCode::kOk);
  ASSERT_EQ(as_timeline(reply).posts.size(), 1u);
}

}  // namespace
}  // namespace dssmr::chirper
