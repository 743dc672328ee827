#include "chirper/chirper.h"

#include "common/assert.h"

namespace dssmr::chirper {
namespace {

void add_unique(std::vector<VarId>& xs, VarId v) {
  if (std::find(xs.begin(), xs.end(), v) == xs.end()) xs.push_back(v);
}

void remove_value(std::vector<VarId>& xs, VarId v) {
  xs.erase(std::remove(xs.begin(), xs.end(), v), xs.end());
}

}  // namespace

net::MessagePtr ChirperApp::execute(const smr::Command& cmd, smr::ExecutionView& view) {
  switch (cmd.op) {
    case kPost: {
      const VarId poster = cmd.write_set.at(0);
      const auto post = std::make_shared<const Post>(Post{poster, cmd.id.value, cmd.arg});
      // Deliver into every reachable timeline (the poster's own included),
      // each sharing the one post. Variables deleted concurrently are
      // simply skipped.
      for (VarId u : cmd.write_set) {
        if (auto* user = view.get_as<UserValue>(u); user != nullptr) {
          user->timeline.push(post);
        }
      }
      return net::make_msg<StatusReply>(view.get(poster) != nullptr);
    }
    case kFollow: {
      auto* follower = view.get_as<UserValue>(cmd.write_set.at(0));
      auto* followee = view.get_as<UserValue>(cmd.write_set.at(1));
      if (follower == nullptr || followee == nullptr) {
        return net::make_msg<StatusReply>(false);
      }
      add_unique(follower->following, cmd.write_set.at(1));
      add_unique(followee->followers, cmd.write_set.at(0));
      return net::make_msg<StatusReply>(true);
    }
    case kUnfollow: {
      auto* follower = view.get_as<UserValue>(cmd.write_set.at(0));
      auto* followee = view.get_as<UserValue>(cmd.write_set.at(1));
      if (follower == nullptr || followee == nullptr) {
        return net::make_msg<StatusReply>(false);
      }
      remove_value(follower->following, cmd.write_set.at(1));
      remove_value(followee->followers, cmd.write_set.at(0));
      return net::make_msg<StatusReply>(true);
    }
    case kGetTimeline: {
      const auto* user = view.get_as<UserValue>(cmd.read_set.at(0));
      if (user == nullptr) return net::make_msg<TimelineReply>(std::vector<PostPtr>{});
      return net::make_msg<TimelineReply>(user->timeline.posts());
    }
    default:
      return net::make_msg<StatusReply>(false);
  }
}

std::unique_ptr<smr::VarValue> ChirperApp::make_default(VarId v) {
  (void)v;
  return std::make_unique<UserValue>();
}

Duration ChirperApp::service_time(const smr::Command& cmd) const {
  return costs_.base + costs_.per_write_var * static_cast<Duration>(cmd.write_set.size()) +
         (cmd.op == kGetTimeline ? costs_.per_timeline_post * kTimelineCap : 0);
}

smr::Command make_post(VarId user, const std::vector<VarId>& followers, std::string text) {
  DSSMR_ASSERT_MSG(text.size() <= kMaxPostLength, "posts are capped at 140 characters");
  smr::Command c;
  c.op = kPost;
  c.write_set.push_back(user);
  for (VarId f : followers) {
    if (f != user) c.write_set.push_back(f);
  }
  c.arg = std::move(text);
  return c;
}

smr::Command make_follow(VarId follower, VarId followee) {
  DSSMR_ASSERT(follower != followee);
  smr::Command c;
  c.op = kFollow;
  c.write_set = {follower, followee};
  c.hint_edges = {{follower, followee}};
  return c;
}

smr::Command make_unfollow(VarId follower, VarId followee) {
  DSSMR_ASSERT(follower != followee);
  smr::Command c;
  c.op = kUnfollow;
  c.write_set = {follower, followee};
  return c;
}

smr::Command make_get_timeline(VarId user) {
  smr::Command c;
  c.op = kGetTimeline;
  c.read_set = {user};
  return c;
}

}  // namespace dssmr::chirper
