// Microbenchmarks of the communication substrate (google-benchmark):
// engine event throughput, network send, Paxos decision round, atomic and
// reliable multicast end-to-end rounds. The cases that time on the wall
// clock (UseRealTime) are gated against BENCH_perf.json by
// tools/perf_compare.py (EXPERIMENTS.md, "Microbenches").
#include <benchmark/benchmark.h>

#include <cstdlib>

#include "multicast/atomic.h"
#include "multicast/client.h"
#include "multicast/directory.h"
#include "net/network.h"
#include "sim/engine.h"
#include "stats/metrics.h"

namespace {

using namespace dssmr;

struct IntPayload final : net::Message {
  std::int64_t v;
  explicit IntPayload(std::int64_t x) : v(x) {}
  const char* type_name() const override { return "bench.int"; }
};

void BM_EngineScheduleAndRun(benchmark::State& state) {
  sim::Engine engine;
  std::int64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      engine.schedule(i, [&sink] { ++sink; });
    }
    engine.run();
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EngineScheduleAndRun);

void BM_EngineScheduleFire(benchmark::State& state) {
  // Pure schedule->fire round trips against a populated heap: a mid-size
  // chirper run keeps thousands of timers pending (per-client timeouts plus
  // every in-flight network delivery). The capture mirrors the network's
  // delivery callbacks ([this, from, to, m] — four words).
  sim::Engine engine;
  std::int64_t ballast = 0;
  for (int i = 0; i < 4096; ++i) engine.schedule(1'000'000'000 + i, [&ballast] { ++ballast; });
  std::int64_t sink = 0;
  std::uint64_t from = 1, to = 2, payload = 3;
  for (auto _ : state) {
    engine.schedule(0, [&sink, from, to, payload] {
      sink += static_cast<std::int64_t>(from + to + payload) / 6;
    });
    engine.step();
  }
  if (sink != static_cast<std::int64_t>(state.iterations())) std::abort();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineScheduleFire)->UseRealTime();

void BM_EngineScheduleCancel(benchmark::State& state) {
  // The timeout pattern: nearly every armed timer is cancelled before it
  // fires (client op timeouts, paxos re-elections).
  sim::Engine engine;
  std::int64_t sink = 0;
  for (auto _ : state) {
    sim::TimerId ids[64];
    for (int i = 0; i < 64; ++i) {
      ids[i] = engine.schedule(1000 + i, [&sink] { ++sink; });
    }
    for (int i = 0; i < 64; ++i) engine.cancel(ids[i]);
    engine.run();  // drains the dead heap entries without firing anything
  }
  if (sink != 0) std::abort();
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_EngineScheduleCancel)->UseRealTime();

class Sink : public net::Actor {
 public:
  void on_message(ProcessId, const net::MessagePtr&) override { ++count; }
  std::uint64_t count = 0;
};

void BM_NetworkSendDeliver(benchmark::State& state) {
  sim::Engine engine;
  net::Network network{engine, {}, 1};
  Sink a, b;
  auto pa = network.add_process(a, 0);
  auto pb = network.add_process(b, 0);
  auto msg = net::make_msg<IntPayload>(1);
  for (auto _ : state) {
    network.send(pa, pb, msg);
    engine.run();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkSendDeliver);

void BM_NetworkMultisend(benchmark::State& state) {
  const auto fanout = static_cast<std::size_t>(state.range(0));
  sim::Engine engine;
  net::Network network{engine, {}, 1};
  Sink sender;
  auto from = network.add_process(sender, 0);
  std::vector<std::unique_ptr<Sink>> sinks;
  std::vector<ProcessId> dests;
  for (std::size_t i = 0; i < fanout; ++i) {
    sinks.push_back(std::make_unique<Sink>());
    dests.push_back(network.add_process(*sinks.back(), static_cast<int>(i % 2)));
  }
  auto msg = net::make_msg<IntPayload>(1);
  for (auto _ : state) {
    network.multisend(from, dests, msg);
    engine.run();
  }
  state.SetItemsProcessed(state.iterations() * fanout);
}
BENCHMARK(BM_NetworkMultisend)->Arg(4)->Arg(16)->UseRealTime();

class NullGroupNode : public multicast::GroupNode {
 public:
  std::uint64_t delivered = 0;

 protected:
  void on_amdeliver(const multicast::AmcastMessage&) override { ++delivered; }
  void on_rmdeliver(ProcessId, const net::MessagePtr&) override { ++delivered; }
};

class NullClient : public multicast::ClientNode {
 protected:
  void on_reply(ProcessId, const net::MessagePtr&) override {}
};

struct MiniFabric {
  MiniFabric(std::size_t groups, std::size_t replicas)
      : network(engine, {}, 1) {
    for (std::size_t g = 0; g < groups; ++g) {
      std::vector<ProcessId> members;
      for (std::size_t r = 0; r < replicas; ++r) {
        nodes.push_back(std::make_unique<NullGroupNode>());
        members.push_back(network.add_process(*nodes.back(), 0));
      }
      directory.add_group(std::move(members));
    }
    std::size_t i = 0;
    for (std::size_t g = 0; g < groups; ++g) {
      for (std::size_t r = 0; r < replicas; ++r, ++i) {
        nodes[i]->init_group_node(network, directory, GroupId{static_cast<std::uint32_t>(g)},
                                  {}, metrics, 11 + i);
      }
    }
    for (auto& n : nodes) n->start();
    network.add_process(client, 0);
    client.init_client_node(network, directory);
    engine.run_for(msec(20));  // elect leaders
  }

  std::uint64_t total_delivered() const {
    std::uint64_t n = 0;
    for (const auto& node : nodes) n += node->delivered;
    return n;
  }

  sim::Engine engine;
  net::Network network;
  multicast::Directory directory;
  stats::Metrics metrics;
  std::vector<std::unique_ptr<NullGroupNode>> nodes;
  NullClient client;
};

void BM_AmcastSingleGroupRound(benchmark::State& state) {
  MiniFabric f{1, 3};
  for (auto _ : state) {
    f.client.amcast({GroupId{0}}, net::make_msg<IntPayload>(1));
    f.engine.run_for(msec(2));
  }
  state.counters["delivered"] =
      static_cast<double>(f.total_delivered()) / static_cast<double>(state.iterations());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AmcastSingleGroupRound);

void BM_AmcastMultiGroupRound(benchmark::State& state) {
  const auto groups = static_cast<std::size_t>(state.range(0));
  MiniFabric f{groups, 3};
  std::vector<GroupId> dests;
  for (std::uint32_t g = 0; g < groups; ++g) dests.push_back(GroupId{g});
  for (auto _ : state) {
    f.client.amcast(dests, net::make_msg<IntPayload>(1));
    f.engine.run_for(msec(4));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AmcastMultiGroupRound)->Arg(2)->Arg(4)->Arg(8);

void BM_RmcastRound(benchmark::State& state) {
  MiniFabric f{2, 3};
  for (auto _ : state) {
    f.nodes[0]->rmcast({GroupId{1}}, net::make_msg<IntPayload>(1));
    f.engine.run_for(msec(1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RmcastRound);

void BM_PaxosDecisionBatch(benchmark::State& state) {
  // One client submission per iteration, decided through the full Paxos
  // message flow (submit -> P2a -> P2b -> commit).
  MiniFabric f{1, 3};
  for (auto _ : state) {
    for (int i = 0; i < 16; ++i) {
      f.client.amcast({GroupId{0}}, net::make_msg<IntPayload>(i));
    }
    f.engine.run_for(msec(2));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_PaxosDecisionBatch);

}  // namespace

BENCHMARK_MAIN();
