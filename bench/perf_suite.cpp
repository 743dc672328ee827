// Wall-clock microbench suite (see EXPERIMENTS.md, "Perf suite").
//
// Runs a pinned set of hot-path microbenchmarks and emits BENCH_perf.json
// (schema dssmr.perf.v1): events/sec on the simulator engine, message
// throughput, map lookups, prophecy installs and Zipf sampling, plus peak
// RSS and wall time. CI runs `perf_suite --smoke --json` and
// tools/perf_compare.py diffs the result against the committed baseline
// with tolerance bands. End-to-end runs are measured by perfbench/, and the
// deterministic end-to-end promises are asserted by tests/promise_test.cpp.
//
// Flags:
//   --smoke      shrink every benchmark (well under a second; CI mode)
//   --json [p]   write the JSON report (default BENCH_perf.json)
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/flat_map.h"
#include "common/rng.h"
#include "common/types.h"
#include "net/network.h"
#include "sim/engine.h"
#include "stats/json_writer.h"
#include "workload/zipf.h"

namespace {

using namespace dssmr;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(Clock::now() - t0)
      .count();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

struct BenchResult {
  std::string name;
  double items_per_sec = 0;
  double wall_s = 0;
  /// Extra metric fields appended verbatim to the bench's JSON object.
  std::vector<std::pair<std::string, double>> extra;
};

struct IntPayload final : net::Message {
  std::int64_t v;
  explicit IntPayload(std::int64_t x) : v(x) {}
  const char* type_name() const override { return "perf.int"; }
};

class CountingActor : public net::Actor {
 public:
  void on_message(ProcessId, const net::MessagePtr&) override { ++count; }
  std::uint64_t count = 0;
};

// --- engine -----------------------------------------------------------------

BenchResult bench_engine_schedule_fire(std::uint64_t iters) {
  // Standing queue depth: a mid-size chirper run keeps thousands of timers
  // pending (per-client timeouts plus every in-flight network delivery), so
  // the schedule/fire path is exercised against a populated heap.
  constexpr int kStanding = 4096;

  sim::Engine engine;
  std::int64_t ballast = 0;
  for (int i = 0; i < kStanding; ++i) {
    engine.schedule(1'000'000'000 + i, [&ballast] { ++ballast; });
  }
  // The capture mirrors the simulator's network-delivery callbacks
  // ([this, from, to, m] — four words).
  std::int64_t sink = 0;
  std::uint64_t from = 1, to = 2, payload = 3;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    engine.schedule(0, [&sink, from, to, payload] {
      sink += static_cast<std::int64_t>(from + to + payload) / 6;
    });
    engine.step();
  }
  const double wall = seconds_since(t0);
  if (sink != static_cast<std::int64_t>(iters)) std::abort();
  return {"engine.schedule_fire", static_cast<double>(iters) / wall, wall, {}};
}

BenchResult bench_engine_schedule_cancel(std::uint64_t iters) {
  constexpr int kBatch = 64;
  const std::uint64_t rounds = iters / kBatch;

  sim::Engine engine;
  std::int64_t sink = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t rd = 0; rd < rounds; ++rd) {
    sim::TimerId ids[kBatch];
    for (int i = 0; i < kBatch; ++i) {
      ids[i] = engine.schedule(1000 + i, [&sink] { ++sink; });
    }
    for (int i = 0; i < kBatch; ++i) engine.cancel(ids[i]);
    engine.run();
  }
  const double wall = seconds_since(t0);
  if (sink != 0) std::abort();

  const auto items = static_cast<double>(rounds * kBatch);
  return {"engine.schedule_cancel", items / wall, wall, {}};
}

// --- network ----------------------------------------------------------------

BenchResult bench_network_multisend(std::uint64_t iters) {
  constexpr std::size_t kFanout = 16;
  sim::Engine engine;
  net::Network network{engine, {}, 1};
  CountingActor sender;
  const ProcessId from = network.add_process(sender, 0);
  std::vector<std::unique_ptr<CountingActor>> actors;
  std::vector<ProcessId> dests;
  for (std::size_t i = 0; i < kFanout; ++i) {
    actors.push_back(std::make_unique<CountingActor>());
    dests.push_back(network.add_process(*actors.back(), static_cast<int>(i % 2)));
  }
  const auto msg = net::make_msg<IntPayload>(7);
  const std::uint64_t rounds = iters / kFanout;
  const auto t0 = Clock::now();
  for (std::uint64_t rd = 0; rd < rounds; ++rd) {
    network.multisend(from, dests, msg);
    engine.run();
  }
  const double wall = seconds_since(t0);
  return {"network.multisend", static_cast<double>(rounds * kFanout) / wall, wall, {}};
}

// --- mapping ----------------------------------------------------------------

BenchResult bench_mapping_locate(std::uint64_t iters) {
  constexpr std::size_t kVars = 100'000;
  common::FlatMap<VarId, GroupId> map;
  map.reserve(kVars);
  for (std::size_t i = 0; i < kVars; ++i) {
    map[VarId{i}] = GroupId{static_cast<std::uint32_t>(i & 7)};
  }
  Rng rng{11};
  std::uint64_t acc = 0;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    acc += map.find(VarId{rng.below(kVars)})->second.value;
  }
  const double wall = seconds_since(t0);
  if (acc == ~0ull) std::abort();  // keep `acc` observable
  return {"mapping.locate", static_cast<double>(iters) / wall, wall, {}};
}

// --- locality ---------------------------------------------------------------

// Mirrors ClientProxy's prophecy-install hot path (install_prefetch):
// unconditional upserts into the flat-map location cache plus the
// per-variable `prefetched` flag, one prophecy's worth of entries at a time.
// A read pass mirrors the cache fast path's prefetch-hit check (find the
// flag, clear it once credited), so the read side stays honest too.
BenchResult bench_prophecy_apply(std::uint64_t iters) {
  constexpr std::size_t kVars = 100'000;
  constexpr std::size_t kBatch = 8;  // one prophecy's locations + prefetch
  common::FlatMap<VarId, GroupId> cache;
  common::FlatMap<VarId, bool> prefetched;
  cache.reserve(kVars);
  prefetched.reserve(kVars);

  Rng rng{17};
  std::pair<VarId, GroupId> batch[kBatch];
  const std::uint64_t rounds = iters / kBatch;
  const auto t0 = Clock::now();
  for (std::uint64_t rd = 0; rd < rounds; ++rd) {
    for (auto& [v, loc] : batch) {
      v = VarId{rng.below(kVars)};
      loc = GroupId{static_cast<std::uint32_t>(rng.below(8))};
    }
    for (const auto& [v, loc] : batch) {
      cache[v] = loc;
      prefetched[v] = true;
    }
  }
  const double wall = seconds_since(t0);

  // Prefetch-hit read pass over the warmed maps.
  Rng rng2{18};
  std::uint64_t hits = 0;
  const auto t1 = Clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    const auto it = prefetched.find(VarId{rng2.below(kVars)});
    if (it != prefetched.end() && it->second) {
      it->second = false;
      ++hits;
    }
  }
  const double lookup_wall = seconds_since(t1);
  if (hits == 0 || cache.size() == 0) std::abort();

  const auto items = static_cast<double>(rounds * kBatch);
  BenchResult r{"locality.prophecy_apply", items / wall, wall, {}};
  r.extra.emplace_back("hit_lookups_per_sec", static_cast<double>(iters) / lookup_wall);
  return r;
}

// --- workload ---------------------------------------------------------------

BenchResult bench_zipf_sample(std::uint64_t iters) {
  // The speedup is a ratio of two wall-clock timings on a shared machine, so
  // one pair is at the mercy of whatever else runs during either half. Time
  // kPairs interleaved alias/cdf pairs and report the medians: a slowdown
  // has to cover most pairs to move them.
  constexpr int kPairs = 5;
  workload::Zipf zipf{100'000, 0.99};
  std::uint64_t acc = 0;
  std::vector<double> alias_walls, cdf_walls, speedups;
  for (int k = 0; k < kPairs; ++k) {
    Rng rng{13u + static_cast<std::uint64_t>(k)};
    auto t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) acc += zipf.sample(rng);
    const double wall = seconds_since(t0);

    Rng rng2{13u + static_cast<std::uint64_t>(k)};
    t0 = Clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) acc += zipf.sample_cdf(rng2);
    const double cdf_wall = seconds_since(t0);
    alias_walls.push_back(wall);
    cdf_walls.push_back(cdf_wall);
    speedups.push_back(cdf_wall / wall);
  }
  if (acc == ~0ull) std::abort();
  const auto median = [](std::vector<double> v) {
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2), v.end());
    return v[v.size() / 2];
  };
  const double wall = median(alias_walls);

  BenchResult r{"zipf.sample", static_cast<double>(iters) / wall, wall, {}};
  r.extra.emplace_back("cdf_items_per_sec", static_cast<double>(iters) / median(cdf_walls));
  r.extra.emplace_back("speedup_vs_cdf", median(speedups));
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_path = (i + 1 < argc && argv[i + 1][0] != '-') ? argv[++i] : "BENCH_perf.json";
    } else {
      std::fprintf(stderr, "usage: perf_suite [--smoke] [--json [path]]\n");
      return 2;
    }
  }

  const std::uint64_t kIters = smoke ? 400'000 : 4'000'000;
  const auto suite_t0 = Clock::now();

  std::vector<BenchResult> results;
  results.push_back(bench_engine_schedule_fire(kIters));
  results.push_back(bench_engine_schedule_cancel(kIters));
  results.push_back(bench_network_multisend(kIters));
  results.push_back(bench_mapping_locate(kIters));
  results.push_back(bench_prophecy_apply(kIters));
  results.push_back(bench_zipf_sample(kIters));

  const double total_wall = seconds_since(suite_t0);

  std::printf("%-24s %16s %10s\n", "bench", "items/sec", "wall(s)");
  for (const BenchResult& r : results) {
    std::printf("%-24s %16.0f %10.3f\n", r.name.c_str(), r.items_per_sec, r.wall_s);
    for (const auto& [k, v] : r.extra) std::printf("  %-22s %16.2f\n", k.c_str(), v);
  }
  std::printf("%-24s %27.3f\n", "total", total_wall);
  std::printf("%-24s %24.1fMB\n", "peak rss", peak_rss_mb());

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (!os) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
      return 1;
    }
    stats::JsonWriter w(os);
    w.begin_object();
    w.field("schema", "dssmr.perf.v1");
    w.field("smoke", smoke);
    w.field("total_wall_s", total_wall);
    w.field("peak_rss_mb", peak_rss_mb());
    w.key("benches");
    w.begin_array();
    for (const BenchResult& r : results) {
      w.begin_object();
      w.field("name", r.name);
      w.field("items_per_sec", r.items_per_sec);
      w.field("wall_s", r.wall_s);
      for (const auto& [k, v] : r.extra) w.field(k, v);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    os << "\n";
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
