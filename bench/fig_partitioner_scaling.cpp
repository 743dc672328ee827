// E9 — Partitioner scaling (the supplied text's "METIS processor and memory
// usage" figure, for our in-repo METIS substitute).
//
// Holme-Kim graphs of growing size; reports wall-clock partitioning time,
// approximate resident memory of the workload graph + CSR, and cut quality
// vs a hash placement. Expected shape: near-linear time and memory in graph
// size (the paper reports METIS scaling linearly to 10M vertices; we sweep
// to 1M with ~7M edges on the laptop-scale budget).
#include <chrono>
#include <cstdio>
#include <iterator>

#include "bench_util.h"
#include "common/rng.h"
#include "partition/partitioner.h"
#include "workload/holme_kim.h"

int main(int argc, char** argv) {
  using namespace dssmr;
  using Clock = std::chrono::steady_clock;

  bench::RunRecordSink sink(argc, argv, "fig_partitioner_scaling");
  std::printf("E9: multilevel partitioner scaling (k = 8)\n");
  std::printf("%10s %12s %12s %12s %12s %10s %10s\n", "vertices", "edges", "build(ms)",
              "part(ms)", "mem(MB)", "cut%%", "hash-cut%%");

  const std::uint32_t kSizes[] = {10'000u, 50'000u, 100'000u,
                                  250'000u, 500'000u, 1'000'000u};

  struct Row {
    std::uint32_t n = 0;
    std::size_t edges = 0;
    double build_ms = 0, part_ms = 0, mem_mb = 0, cut = 0, hash_cut = 0;
    stats::RunRecord rec;
  };

  // Each size is independent (own Rng, builder, graph), so sizes run on
  // sweep threads. Caveat: with --jobs > 1 the wall-clock columns contend
  // for cores — use serial runs when the timings themselves are the result.
  auto rows = harness::parallel_map(std::size(kSizes), sink.options().jobs,[&](std::size_t si) {
    const std::uint32_t n = kSizes[si];
    Rng rng{99};
    const workload::HolmeKimConfig cfg{.n = n, .m = 7, .p_triad = 0.7};

    auto t0 = Clock::now();
    partition::GraphBuilder builder;
    builder.touch(n - 1);
    for (auto [u, v] : workload::holme_kim(cfg, rng)) builder.add_edge(u, v);
    partition::Csr g = builder.build();
    auto t1 = Clock::now();

    partition::PartitionerConfig pcfg;
    pcfg.k = 8;
    auto result = partition::partition_graph(g, pcfg);
    auto t2 = Clock::now();

    Row row;
    row.n = n;
    row.edges = g.edge_count();
    row.build_ms =
        std::chrono::duration_cast<std::chrono::microseconds>(t1 - t0).count() / 1000.0;
    row.part_ms =
        std::chrono::duration_cast<std::chrono::microseconds>(t2 - t1).count() / 1000.0;
    row.mem_mb =
        static_cast<double>(builder.memory_bytes() + g.adj.size() * 12 + g.xadj.size() * 8) /
        (1024.0 * 1024.0);
    row.cut = partition::edge_cut_fraction(g, result.part);
    row.hash_cut =
        partition::edge_cut_fraction(g, partition::hash_partition(g.vertex_count(), 8));

    // No deployment here, so synthesize a schema-consistent record per size.
    char label[16];
    std::snprintf(label, sizeof label, "n%u", n);
    row.rec.label = std::string(label);
    row.rec.add_meta("k", std::to_string(pcfg.k));
    row.rec.add_meta("mem_mb", std::to_string(row.mem_mb));
    row.rec.add_meta("cut_fraction", std::to_string(row.cut));
    row.rec.add_meta("hash_cut_fraction", std::to_string(row.hash_cut));
    row.rec.metrics.inc("graph.vertices", n);
    row.rec.metrics.inc("graph.edges", g.edge_count());
    row.rec.metrics.histogram("partitioner.build_us")
        .record(static_cast<std::int64_t>(row.build_ms * 1000.0));
    row.rec.metrics.histogram("partitioner.partition_us")
        .record(static_cast<std::int64_t>(row.part_ms * 1000.0));
    row.rec.metrics.series("partitioner.mem_mb").add(0, row.mem_mb);
    return row;
  });

  for (Row& row : rows) {
    std::printf("%10u %12zu %12.1f %12.1f %12.1f %9.2f%% %9.2f%%\n", row.n, row.edges,
                row.build_ms, row.part_ms, row.mem_mb, 100.0 * row.cut,
                100.0 * row.hash_cut);
    sink.add(std::move(row.rec));
  }
  return sink.finish();
}
