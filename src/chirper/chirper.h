// Chirper: the Twitter-like service of the paper's evaluation (Section 5.2).
//
// Each user is one state variable holding profile links (followers /
// following) and a materialized timeline. Post fan-out writes the new post
// into every follower's timeline at post time, which makes getTimeline a
// guaranteed single-partition command — the design decision the paper calls
// out; the flip side is that post/follow/unfollow may touch several
// partitions and therefore drive DS-SMR's moves.
//
// A post is immutable once executed, so a replica builds it once and every
// timeline in the write set (and every timeline reply) holds the same
// shared Post. Sizes still charge each timeline its own copy: the modelled
// system ships and stores a post per follower, whatever the simulator keeps.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "smr/app.h"
#include "smr/command.h"

namespace dssmr::chirper {

enum Op : std::uint32_t {
  kPost = 1,         // write_set = {poster} ∪ followers(poster); arg = text
  kFollow = 2,       // write_set = {follower, followee}
  kUnfollow = 3,     // write_set = {follower, followee}
  kGetTimeline = 4,  // read_set = {user}
};

constexpr std::size_t kTimelineCap = 50;
constexpr std::size_t kMaxPostLength = 140;

struct Post {
  VarId author{};
  std::uint64_t seq = 0;  // command id: deterministic, totally ordered per user
  std::string text;
};

using PostPtr = std::shared_ptr<const Post>;

/// Modelled bytes of one post, whichever timeline or reply holds it.
inline std::size_t post_bytes(const Post& p) { return 24 + p.text.size(); }

/// The newest kTimelineCap posts, oldest first. A ring over a vector that
/// grows on demand up to the cap (an empty timeline allocates nothing) and
/// then overwrites its oldest post in place.
class Timeline {
 public:
  std::size_t size() const { return ring_.size(); }
  /// The i-th oldest post.
  const Post& operator[](std::size_t i) const { return *ring_[(head_ + i) % ring_.size()]; }
  const Post& front() const { return (*this)[0]; }
  const Post& back() const { return (*this)[size() - 1]; }

  void push(PostPtr p) {
    if (ring_.size() < kTimelineCap) {
      if (ring_.size() == ring_.capacity()) {
        ring_.reserve(std::min(kTimelineCap, std::max<std::size_t>(4, 2 * ring_.size())));
      }
      ring_.push_back(std::move(p));
      return;
    }
    ring_[head_] = std::move(p);
    head_ = (head_ + 1) % kTimelineCap;
  }

  /// The posts, oldest first, sharing this timeline's objects.
  std::vector<PostPtr> posts() const {
    std::vector<PostPtr> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(head_ + i) % ring_.size()]);
    }
    return out;
  }

 private:
  std::vector<PostPtr> ring_;
  std::size_t head_ = 0;  // index of the oldest post once the ring is full
};

struct UserValue final : smr::VarValue {
  std::vector<VarId> followers;
  std::vector<VarId> following;
  Timeline timeline;

  /// Shallow in the posts: they are immutable, so a clone shares them.
  std::unique_ptr<smr::VarValue> clone() const override {
    return std::make_unique<UserValue>(*this);
  }
  std::size_t size_bytes() const override {
    std::size_t n = 64 + (followers.size() + following.size()) * 8;
    for (std::size_t i = 0; i < timeline.size(); ++i) n += post_bytes(timeline[i]);
    return n;
  }
};

struct TimelineReply final : net::Message {
  std::vector<PostPtr> posts;
  explicit TimelineReply(std::vector<PostPtr> p) : posts(std::move(p)) {}
  const char* type_name() const override { return "chirper.timeline"; }
  std::size_t size_bytes() const override {
    std::size_t n = 16;
    for (const PostPtr& p : posts) n += post_bytes(*p);
    return n;
  }
};

struct StatusReply final : net::Message {
  bool ok;
  explicit StatusReply(bool o) : ok(o) {}
  const char* type_name() const override { return "chirper.status"; }
  std::size_t size_bytes() const override { return 9; }
};

class ChirperApp final : public smr::AppStateMachine {
 public:
  struct Costs {
    Duration base = usec(8);
    Duration per_write_var = usec(1);
    Duration per_timeline_post = usec(0);
  };

  ChirperApp() : costs_(Costs{}) {}
  explicit ChirperApp(Costs costs) : costs_(costs) {}

  net::MessagePtr execute(const smr::Command& cmd, smr::ExecutionView& view) override;
  std::unique_ptr<smr::VarValue> make_default(VarId v) override;
  Duration service_time(const smr::Command& cmd) const override;

 private:
  Costs costs_;
};

inline smr::AppFactory chirper_app_factory(ChirperApp::Costs costs = ChirperApp::Costs{}) {
  return [costs] { return std::make_unique<ChirperApp>(costs); };
}

// ---- command builders (the client-side application vocabulary) -------------

/// post(u): the caller supplies u's follower list (clients track the part of
/// the social graph they interact with; the workload driver plays that role).
smr::Command make_post(VarId user, const std::vector<VarId>& followers, std::string text);
smr::Command make_follow(VarId follower, VarId followee);
smr::Command make_unfollow(VarId follower, VarId followee);
smr::Command make_get_timeline(VarId user);

}  // namespace dssmr::chirper
