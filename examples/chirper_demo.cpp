// Chirper demo: the paper's social network running on DS-SMR.
//
// A small cast of users follows each other and posts; the demo prints the
// timelines and shows how DS-SMR migrates users so that each post becomes a
// single-partition command.
//
// Build and run:  ./build/examples/chirper_demo
#include <cstdio>

#include "chirper/chirper.h"
#include "harness/deployment.h"

using namespace dssmr;

namespace {

constexpr VarId kAda{0}, kBob{1}, kCyd{2}, kDee{3};

const char* name_of(VarId u) {
  switch (u.value) {
    case 0:
      return "ada";
    case 1:
      return "bob";
    case 2:
      return "cyd";
    case 3:
      return "dee";
  }
  return "???";
}

smr::ReplyCode call(harness::Deployment& d, std::size_t client, smr::Command cmd,
                    net::MessagePtr* reply = nullptr) {
  bool done = false;
  smr::ReplyCode rc = smr::ReplyCode::kNok;
  d.client(client).issue(std::move(cmd), [&](smr::ReplyCode c, const net::MessagePtr& r) {
    done = true;
    rc = c;
    if (reply != nullptr) *reply = r;
  });
  while (!done) d.engine().run_for(msec(5));
  return rc;
}

void show_timeline(harness::Deployment& d, VarId user) {
  net::MessagePtr reply;
  call(d, 0, chirper::make_get_timeline(user), &reply);
  const auto& tl = net::msg_as<chirper::TimelineReply>(reply);
  std::printf("  @%s's timeline (%zu posts):\n", name_of(user), tl.posts.size());
  for (const auto& post : tl.posts) {
    std::printf("    [@%s] %s\n", name_of(post->author), post->text.c_str());
  }
}

void show_placement(harness::Deployment& d) {
  const auto& m = d.oracle(0).mapping();
  std::printf("  placement:");
  for (VarId u : {kAda, kBob, kCyd, kDee}) {
    std::printf(" @%s->P%u", name_of(u), m.locate(u).value);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  harness::DeploymentConfig cfg;
  cfg.partitions = 2;
  cfg.replicas_per_partition = 3;
  cfg.clients = 2;
  cfg.strategy = core::Strategy::kDssmr;
  harness::Deployment d{cfg, chirper::chirper_app_factory(),
                        [] { return std::make_unique<core::DssmrPolicy>(); }};

  // ada & cyd start on partition 0; bob & dee on partition 1.
  for (VarId u : {kAda, kCyd}) d.preload_var(u, d.partition_gid(0), chirper::UserValue{});
  for (VarId u : {kBob, kDee}) d.preload_var(u, d.partition_gid(1), chirper::UserValue{});
  d.start();
  d.settle();

  std::printf("== initial placement ==\n");
  show_placement(d);

  std::printf("\n== bob and cyd follow ada ==\n");
  call(d, 0, chirper::make_follow(kBob, kAda));
  call(d, 1, chirper::make_follow(kCyd, kAda));
  show_placement(d);

  std::printf("\n== ada posts (fan-out to bob & cyd) ==\n");
  call(d, 0, chirper::make_post(kAda, {kBob, kCyd}, "hello, replicated world"));
  show_placement(d);
  show_timeline(d, kBob);
  show_timeline(d, kCyd);
  show_timeline(d, kDee);

  std::printf("\n== dee follows ada; ada posts again ==\n");
  call(d, 1, chirper::make_follow(kDee, kAda));
  call(d, 0, chirper::make_post(kAda, {kBob, kCyd, kDee}, "second chirp"));
  show_timeline(d, kDee);

  std::printf("\n== bob unfollows and misses the next post ==\n");
  call(d, 0, chirper::make_unfollow(kBob, kAda));
  call(d, 0, chirper::make_post(kAda, {kCyd, kDee}, "bob won't see this"));
  show_timeline(d, kBob);
  show_timeline(d, kCyd);

  std::printf("\nprotocol work: %llu moves, %llu consults, %llu retries\n",
              static_cast<unsigned long long>(d.metrics().counter("client.moves")),
              static_cast<unsigned long long>(d.metrics().counter("client.consults")),
              static_cast<unsigned long long>(d.metrics().counter("client.retries")));
  return 0;
}
