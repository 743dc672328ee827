// Smoke driver for heapprof: executes a burst of Chirper posts, each fanned
// out to ten followers, and keeps each post's reply message, so the heap
// peaks on timeline state and replies, then frees both. smoke_test.py runs it
// under the profiler and checks the attribution.
#include <cstdio>
#include <string>
#include <vector>

#include "chirper/chirper.h"
#include "smr/app.h"

int main() {
  using namespace dssmr;
  constexpr std::uint64_t kUsers = 1000;
  constexpr std::uint64_t kPosts = 5000;
  constexpr std::uint64_t kFollowers = 10;
  {
    smr::VariableStore vars;
    for (std::uint64_t u = 0; u < kUsers; ++u) {
      vars.put(VarId{u}, std::make_unique<chirper::UserValue>());
    }
    smr::ExecutionView view{vars};
    chirper::ChirperApp app;
    std::vector<net::MessagePtr> replies;
    replies.reserve(kPosts);
    for (std::uint64_t p = 0; p < kPosts; ++p) {
      const std::uint64_t poster = p % kUsers;
      std::vector<VarId> followers;
      for (std::uint64_t f = 1; f <= kFollowers; ++f) {
        followers.push_back(VarId{(poster + f) % kUsers});
      }
      smr::Command cmd = chirper::make_post(VarId{poster}, followers, std::string(100, 'x'));
      cmd.id = MsgId{p + 1};
      replies.push_back(app.execute(cmd, view));
    }
    std::printf("heapprof_smoke: timelines hold %zu modelled bytes; %zu replies kept\n",
                vars.total_bytes(), replies.size());
  }
  return 0;
}
