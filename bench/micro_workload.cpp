// Microbenchmarks of the workload-generation and statistics substrates and
// of the client location cache's flat maps. The cases that time on the wall
// clock (UseRealTime) are gated against BENCH_perf.json by
// tools/perf_compare.py (EXPERIMENTS.md, "Microbenches").
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <unordered_map>
#include <utility>

#include "common/flat_map.h"
#include "common/rng.h"
#include "common/types.h"
#include "core/client_proxy.h"
#include "partition/partitioner.h"
#include "stats/histogram.h"
#include "workload/chirper_workload.h"
#include "workload/holme_kim.h"
#include "workload/zipf.h"

namespace {

using namespace dssmr;

void BM_RngNext(benchmark::State& state) {
  Rng rng{1};
  for (auto _ : state) benchmark::DoNotOptimize(rng.next());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngNext);

void BM_ZipfSampleAlias(benchmark::State& state) {
  Rng rng{2};
  workload::Zipf zipf{static_cast<std::size_t>(state.range(0)), 0.99};
  for (auto _ : state) benchmark::DoNotOptimize(zipf.sample(rng));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSampleAlias)->Arg(1000)->Arg(100000)->UseRealTime();

void BM_ZipfSampleCdf(benchmark::State& state) {
  // Reference inverse-CDF sampler (binary search) — the alias method above
  // replaces this on the hot path; kept to quantify the win.
  Rng rng{2};
  workload::Zipf zipf{static_cast<std::size_t>(state.range(0)), 0.99};
  for (auto _ : state) benchmark::DoNotOptimize(zipf.sample_cdf(rng));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSampleCdf)->Arg(1000)->Arg(100000)->UseRealTime();

void BM_FlatMapLocate(benchmark::State& state) {
  // The Mapping/location-cache lookup shape: VarId keys 0..n-1, random probe
  // order, all hits.
  const auto n = static_cast<std::size_t>(state.range(0));
  common::FlatMap<VarId, GroupId> map;
  map.reserve(n);
  for (std::size_t i = 0; i < n; ++i) map[VarId{i}] = GroupId{static_cast<std::uint32_t>(i & 7)};
  Rng rng{7};
  for (auto _ : state) {
    auto it = map.find(VarId{rng.below(n)});
    benchmark::DoNotOptimize(it->second);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlatMapLocate)->Arg(2048)->Arg(100000)->UseRealTime();

void BM_UnorderedMapLocate(benchmark::State& state) {
  // std::unordered_map baseline for BM_FlatMapLocate.
  const auto n = static_cast<std::size_t>(state.range(0));
  std::unordered_map<VarId, GroupId> map;
  map.reserve(n);
  for (std::size_t i = 0; i < n; ++i) map[VarId{i}] = GroupId{static_cast<std::uint32_t>(i & 7)};
  Rng rng{7};
  for (auto _ : state) {
    auto it = map.find(VarId{rng.below(n)});
    benchmark::DoNotOptimize(it->second);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UnorderedMapLocate)->Arg(2048)->Arg(100000);

constexpr std::size_t kCachedVars = 100'000;

void BM_ProphecyApply(benchmark::State& state) {
  // ClientProxy::install_prefetch: one unconditional upsert of location and
  // `prefetched` bit into the location cache per entry, one prophecy's worth
  // of entries (8) per iteration.
  core::LocationCache cache;
  cache.reserve(kCachedVars);
  Rng rng{17};
  std::pair<VarId, GroupId> batch[8];
  for (auto _ : state) {
    for (auto& [v, loc] : batch) {
      v = VarId{rng.below(kCachedVars)};
      loc = GroupId{static_cast<std::uint32_t>(rng.below(8))};
    }
    for (const auto& [v, loc] : batch) cache[v] = {loc, /*prefetched=*/true};
  }
  benchmark::DoNotOptimize(cache.size());
  state.SetItemsProcessed(state.iterations() * 8);
}
BENCHMARK(BM_ProphecyApply)->UseRealTime();

void BM_PrefetchHitLookup(benchmark::State& state) {
  // The cache fast path against a warm cache (every variable prefetched):
  // find the entry, read its `prefetched` bit, clear it once credited.
  core::LocationCache cache;
  cache.reserve(kCachedVars);
  for (std::size_t i = 0; i < kCachedVars; ++i) {
    cache[VarId{i}] = {GroupId{static_cast<std::uint32_t>(i & 7)}, /*prefetched=*/true};
  }
  Rng rng{18};
  std::uint64_t hits = 0;
  for (auto _ : state) {
    const auto it = cache.find(VarId{rng.below(kCachedVars)});
    if (it != cache.end() && it->second.prefetched) {
      it->second.prefetched = false;
      ++hits;
    }
  }
  if (hits == 0) std::abort();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrefetchHitLookup)->UseRealTime();

void BM_HistogramRecord(benchmark::State& state) {
  stats::Histogram h;
  std::int64_t v = 17;
  for (auto _ : state) {
    h.record(v);
    v = (v * 1103515245 + 12345) & 0xfffff;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramRecord);

void BM_HistogramPercentile(benchmark::State& state) {
  stats::Histogram h;
  for (int i = 0; i < 100000; ++i) h.record(i);
  for (auto _ : state) benchmark::DoNotOptimize(h.percentile(0.99));
}
BENCHMARK(BM_HistogramPercentile);

void BM_HolmeKimGenerate(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    Rng rng{3};
    auto edges = workload::holme_kim({.n = n, .m = 3, .p_triad = 0.8}, rng);
    benchmark::DoNotOptimize(edges.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_HolmeKimGenerate)->Arg(10000)->Arg(100000);

void BM_GraphBuilderAddEdge(benchmark::State& state) {
  partition::GraphBuilder b;
  std::uint32_t u = 1;
  for (auto _ : state) {
    b.add_edge(u % 10000, (u * 7 + 1) % 10000);
    ++u;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GraphBuilderAddEdge);

void BM_PartitionGraph(benchmark::State& state) {
  Rng rng{4};
  const auto n = static_cast<std::uint32_t>(state.range(0));
  partition::Csr g = workload::holme_kim_csr({.n = n, .m = 3, .p_triad = 0.8}, rng);
  partition::PartitionerConfig cfg;
  cfg.k = 8;
  for (auto _ : state) {
    auto r = partition::partition_graph(g, cfg);
    benchmark::DoNotOptimize(r.part.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PartitionGraph)->Arg(10000)->Arg(50000)->Unit(benchmark::kMillisecond);

void BM_ChirperWorkloadNext(benchmark::State& state) {
  Rng seed{5};
  auto graph = workload::SocialGraph::generate({.n = 10000, .m = 3, .p_triad = 0.8}, seed);
  workload::ChirperWorkloadConfig cfg;
  cfg.mix = workload::mixes::kTimelineHeavy;
  workload::ChirperWorkload wl{graph, cfg, 6};
  for (auto _ : state) {
    auto cmd = wl.next();
    benchmark::DoNotOptimize(cmd.write_set.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChirperWorkloadNext);

}  // namespace

BENCHMARK_MAIN();
