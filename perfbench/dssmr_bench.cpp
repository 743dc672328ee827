// DS-SMR benchmark driver: one workload, one seed, one single-threaded process.
//
// The benchmark composes the public harness API itself, so every step is
// timed on its own and nothing under src/ knows it is being measured:
//
//   prepare_workload -> Deployment ctor / reserve_vars / preload_var / start
//   -> settle -> Nemesis::arm (failover) -> drive (ClientProxy::issue from
//   this file's closed- or open-loop driver, Engine::run_until in
//   virtual-time slices) -> drain -> audit_consistency -> destructor.
//
// Slicing run_until is behaviour-neutral: nothing is scheduled between
// slices. At each slice boundary the benchmark reads const gauges (pending
// events, queue depths, replica lag, ...), which adds no event.
//
// Output: one JSON object on stdout (see run.py, which aggregates several
// processes into the benchmark's result line). Modelled metrics are exact per
// seed and are folded into a digest; simulator metrics are thread-CPU times.
//
// Modes:
//   dssmr_bench --workload <name> --seed <n> [--spans] [--chrome <path>]
//   dssmr_bench --cross-check   closed-loop composition == harness::run_chirper
//   dssmr_bench --neutrality    sampling and span tracing leave the digest alone
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "chirper/chirper.h"
#include "common/rng.h"
#include "core/mapping.h"
#include "fault/nemesis.h"
#include "harness/deployment.h"
#include "harness/experiment.h"
#include "stats/histogram.h"
#include "stats/span.h"
#include "workload/chirper_workload.h"

namespace {

using namespace dssmr;

// ---- clocks ------------------------------------------------------------------

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

const auto kProcessStart = std::chrono::steady_clock::now();

double wall_us() {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() -
                                                   kProcessStart)
      .count();
}

// ---- workloads ---------------------------------------------------------------

struct Workload {
  std::string name;
  harness::ChirperRunConfig cfg;
  /// Open loop: Poisson arrivals at `rate_cps`, queued for the first idle
  /// client proxy. Closed loop: each proxy issues its next command as soon as
  /// the previous one completes (harness::ClosedLoopDriver's semantics).
  bool open_loop = false;
  double rate_cps = 0;
};

/// Shared cluster and data of scale8 / overload: 8 partitions x 2 replicas
/// plus 2 oracle replicas, 4096 users on a community graph with a 5%
/// controlled cut, hash placement, post-only, plain DS-SMR.
harness::ChirperRunConfig scale8_config() {
  harness::ChirperRunConfig cfg;
  cfg.partitions = 8;
  cfg.clients_per_partition = 8;
  cfg.replicas_per_partition = 2;
  cfg.graph = {.n = 4096, .m = 2, .p_triad = 0.8};
  cfg.use_controlled_cut = true;
  cfg.controlled_edge_cut = 0.05;
  cfg.placement = harness::Placement::kHash;
  cfg.workload.mix = workload::mixes::kPostOnly;
  cfg.warmup = msec(400);
  cfg.measure = msec(1200);
  return cfg;
}

std::optional<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "scale8") {
    w.cfg = scale8_config();
  } else if (name == "overload") {
    w.cfg = scale8_config();
    w.cfg.clients_per_partition = 32;
  } else if (name == "failover") {
    harness::ChirperRunConfig& cfg = w.cfg;
    cfg.partitions = 4;
    cfg.clients_per_partition = 16;  // 64 proxies serve the open-loop arrivals
    cfg.replicas_per_partition = 3;  // majority quorums; oracle gets 3 too
    cfg.rmcast_relay = true;
    cfg.graph = {.n = 4096, .m = 2, .p_triad = 0.8};
    cfg.use_controlled_cut = true;
    cfg.controlled_edge_cut = 0.05;
    cfg.placement = harness::Placement::kMetis;
    cfg.workload.mix = workload::mixes::kTimelineHeavy;
    cfg.batch_size = 16;
    cfg.batch_delay = usec(100);
    cfg.pipeline_depth = 8;
    cfg.prefetch_k = 16;
    cfg.warmup = msec(500);
    cfg.measure = msec(2500);
    // Times are relative to Nemesis::arm(), i.e. the start of warm-up: both
    // kills and both recoveries fall inside the measure window.
    cfg.nemesis =
        "kill-leader:p0@800ms;recover:last@1300ms;"
        "kill-leader:oracle@1700ms;recover:last@2200ms";
    w.open_loop = true;
    w.rate_cps = 12000;
  } else {
    return std::nullopt;
  }
  w.cfg.seed = seed;
  return w;
}

const char* const kWorkloadNames[] = {"scale8", "overload", "failover"};

/// harness::run_chirper's DeploymentConfig mapping, for the DS-SMR strategy.
harness::DeploymentConfig deployment_config(const harness::ChirperRunConfig& cfg) {
  harness::DeploymentConfig dep;
  dep.partitions = cfg.partitions;
  dep.replicas_per_partition = cfg.replicas_per_partition;
  dep.oracle_replicas = cfg.replicas_per_partition;
  dep.clients = cfg.partitions * cfg.clients_per_partition;
  dep.strategy = cfg.strategy;
  dep.node.rmcast_relay = cfg.rmcast_relay;
  dep.batch_size = cfg.batch_size;
  dep.batch_delay = cfg.batch_delay;
  dep.pipeline_depth = cfg.pipeline_depth;
  dep.prefetch_k = cfg.prefetch_k;
  dep.cache_repair = cfg.cache_repair;
  dep.coalesce_moves = cfg.coalesce_moves;
  dep.coalesce_delay = cfg.coalesce_delay;
  dep.client_cache = cfg.client_cache;
  dep.seed = cfg.seed;
  dep.spans = cfg.spans;
  dep.spans_capacity = cfg.spans_capacity;
  return dep;
}

// ---- benchmark spans (traced run) -----------------------------------------------

struct BenchSpan {
  std::string name;
  double wall_start_us;
  double wall_dur_us;
  double cpu_s;
  Time vt_start;
  Time vt_end;
  std::uint64_t events;
};

/// Records a span around each public call when enabled; always returns the
/// call's thread-CPU seconds.
class Phases {
 public:
  explicit Phases(bool record) : record_(record) {}

  template <class F>
  double time(const std::string& name, sim::Engine* engine, F&& fn) {
    const double w0 = wall_us();
    const double c0 = thread_cpu_s();
    const Time vt0 = engine != nullptr ? engine->now() : 0;
    const std::uint64_t ev0 = engine != nullptr ? engine->events_executed() : 0;
    fn();
    const double cpu = thread_cpu_s() - c0;
    if (record_) {
      spans_.push_back({name, w0, wall_us() - w0, cpu, vt0,
                        engine != nullptr ? engine->now() : 0,
                        engine != nullptr ? engine->events_executed() - ev0 : 0});
    }
    return cpu;
  }

  const std::vector<BenchSpan>& spans() const { return spans_; }

 private:
  bool record_;
  std::vector<BenchSpan> spans_;
};

// ---- load driver -----------------------------------------------------------------

/// Drives the deployment's client proxies. Closed loop reproduces
/// harness::ClosedLoopDriver exactly (staggered starts, issue-time latency,
/// replies counted when they land in (measure_start, measure_end]); open loop
/// times each request from its due time and counts requests that wait for a
/// free proxy.
class LoadDriver {
 public:
  LoadDriver(harness::Deployment& d, workload::ChirperWorkload& wl, const Workload& w,
             bool time_calls)
      : d_(d), wl_(wl), w_(w), time_calls_(time_calls), rng_(w.cfg.seed * 0x2545f491ULL + 3) {}

  void begin(Time measure_start, Time measure_end) {
    measure_start_ = measure_start;
    measure_end_ = measure_end;
    sim::Engine& e = d_.engine();
    const std::size_t n = d_.client_count();
    issued_at_.assign(n, -1);
    if (!w_.open_loop) {
      for (std::size_t c = 0; c < n; ++c) {
        e.schedule(usec(static_cast<Duration>(c) * 150), [this, c] {
          if (!d_.client(c).busy()) kick(c);
        });
      }
      return;
    }
    for (std::size_t c = n; c > 0; --c) free_.push_back(c - 1);
    next_due_ = static_cast<double>(e.now());
    schedule_arrival();
  }

  /// No new requests after this (closed loop; open-loop arrivals stop at
  /// measure_end on their own).
  void stop() { stopped_ = true; }

  bool idle() const {
    if (!backlog_.empty()) return false;
    for (std::size_t c = 0; c < d_.client_count(); ++c) {
      if (issued_at_[c] >= 0) return false;
    }
    return true;
  }

  /// Longest wait of a request still outstanding at `t` (0 if none).
  Duration outstanding_wait(Time t) const {
    Duration w = 0;
    for (Time s : issued_at_) {
      if (s >= 0) w = std::max(w, t - s);
    }
    if (!backlog_.empty()) w = std::max(w, t - backlog_.front().due);
    return w;
  }

  /// Requests never answered (call after the drain): unanswered issues plus
  /// queued requests that never got a proxy.
  std::uint64_t unanswered() const {
    std::uint64_t n = backlog_.size();
    for (Time s : issued_at_) n += s >= 0 ? 1 : 0;
    return n;
  }

  std::uint64_t attempted = 0;
  std::uint64_t ok_total = 0;
  std::uint64_t nok_total = 0;
  std::uint64_t refused = 0;
  std::uint64_t refused_in_window = 0;
  std::uint64_t window_ok = 0;
  std::uint64_t window_nok = 0;
  /// run_chirper semantics: every reply landing in the window, ok or not.
  stats::Histogram window_hist;
  /// Exact latencies of kOk replies in the window.
  std::vector<std::int64_t> window_lat;
  std::size_t backlog_max = 0;
  std::uint64_t issue_calls = 0;
  std::uint64_t generate_calls = 0;
  double issue_ns = 0;
  double generate_ns = 0;

 private:
  struct Pending {
    Time due;
    smr::Command cmd;
  };
  /// Bounded queue of due requests waiting for a proxy; arrivals beyond it
  /// are refused (counted as failed, infinitely slow).
  static constexpr std::size_t kBacklogCap = 1 << 16;

  smr::Command generate() {
    if (!time_calls_) return wl_.next();
    const auto t0 = std::chrono::steady_clock::now();
    smr::Command cmd = wl_.next();
    generate_ns += std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0)
                       .count();
    ++generate_calls;
    return cmd;
  }

  void issue(std::size_t c, smr::Command cmd, Time start) {
    ++attempted;
    issued_at_[c] = start;
    auto done = [this, c, start](smr::ReplyCode code, const net::MessagePtr&) {
      issued_at_[c] = -1;
      complete(code, start);
      if (w_.open_loop) {
        free_.push_back(c);
        dispatch();
      } else {
        kick(c);
      }
    };
    if (!time_calls_) {
      d_.client(c).issue(std::move(cmd), std::move(done));
      return;
    }
    const auto t0 = std::chrono::steady_clock::now();
    d_.client(c).issue(std::move(cmd), std::move(done));
    issue_ns +=
        std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0).count();
    ++issue_calls;
  }

  void complete(smr::ReplyCode code, Time start) {
    const Time now = d_.engine().now();
    const bool ok = code == smr::ReplyCode::kOk;
    ++(ok ? ok_total : nok_total);
    if (now > measure_start_ && now <= measure_end_) {
      window_hist.record(now - start);
      if (ok) {
        ++window_ok;
        window_lat.push_back(now - start);
      } else {
        ++window_nok;
      }
    }
  }

  void kick(std::size_t c) {
    if (stopped_) return;
    issue(c, generate(), d_.engine().now());
  }

  void schedule_arrival() {
    next_due_ += rng_.exponential(1e6 / w_.rate_cps);
    const auto due = static_cast<Time>(next_due_);
    if (due > measure_end_) return;
    d_.engine().schedule_at(due, [this, due] { arrive(due); });
  }

  void arrive(Time due) {
    if (backlog_.size() >= kBacklogCap) {
      ++attempted;
      ++refused;
      if (due > measure_start_) ++refused_in_window;
    } else {
      backlog_.push_back({due, generate()});
      backlog_max = std::max(backlog_max, backlog_.size());
      dispatch();
    }
    schedule_arrival();
  }

  void dispatch() {
    while (!backlog_.empty() && !free_.empty()) {
      const std::size_t c = free_.back();
      free_.pop_back();
      Pending p = std::move(backlog_.front());
      backlog_.pop_front();
      issue(c, std::move(p.cmd), p.due);
    }
  }

  harness::Deployment& d_;
  workload::ChirperWorkload& wl_;
  const Workload& w_;
  bool time_calls_;
  Rng rng_;
  bool stopped_ = false;
  Time measure_start_ = 0;
  Time measure_end_ = 0;
  /// Start (issue or due) time of each proxy's outstanding request, -1 idle.
  std::vector<Time> issued_at_;
  std::vector<std::size_t> free_;
  std::deque<Pending> backlog_;
  double next_due_ = 0;
};

// ---- gauges read at slice boundaries ----------------------------------------------------

/// The group nodes of one multicast group (partition replicas or oracle).
std::vector<multicast::GroupNode*> group_nodes(harness::Deployment& d, std::size_t g) {
  std::vector<multicast::GroupNode*> nodes;
  const std::size_t r = d.config().replicas_per_partition;
  if (g < d.config().partitions) {
    for (std::size_t i = 0; i < r; ++i) nodes.push_back(&d.server(g, i));
  } else {
    for (std::size_t i = 0; i < d.config().oracle_replicas; ++i) nodes.push_back(&d.oracle(i));
  }
  return nodes;
}

const multicast::GroupNode* live_leader(const std::vector<multicast::GroupNode*>& nodes) {
  for (const auto* n : nodes) {
    if (!n->halted() && n->is_leader()) return n;
  }
  return nullptr;
}

struct Gauges {
  std::uint64_t samples = 0;
  double pending = 0;
  double inflight = 0;
  double amcast_pending = 0;
  double queue_depth = 0;
  std::uint64_t lag_max = 0;
  /// Restarted replicas still catching up: node -> virtual time of recovery.
  std::map<const multicast::GroupNode*, Time> catching_up;
  std::map<const multicast::GroupNode*, bool> was_halted;
  Duration catchup_max = 0;

  /// Catch-up tracking runs at every boundary; averages only in the window.
  void sample(harness::Deployment& d, bool in_window) {
    const Time now = d.engine().now();
    const std::size_t groups = d.config().partitions + 1;
    double inflight_now = 0;
    double amcast_now = 0;
    double queue_now = 0;
    for (std::size_t g = 0; g < groups; ++g) {
      const auto nodes = group_nodes(d, g);
      const multicast::GroupNode* leader = live_leader(nodes);
      std::size_t depth = 0;
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        const multicast::GroupNode* n = nodes[i];
        const bool halted = n->halted();
        auto [it, fresh] = was_halted.try_emplace(n, halted);
        if (!fresh && it->second && !halted) catching_up[n] = now;
        it->second = halted;
        if (halted) continue;
        if (leader != nullptr && n != leader) {
          const std::uint64_t ld = leader->amcast_delivered();
          const std::uint64_t nd = n->amcast_delivered();
          if (in_window && ld > nd) lag_max = std::max(lag_max, ld - nd);
          if (auto c = catching_up.find(n); c != catching_up.end() && nd >= ld) {
            catchup_max = std::max(catchup_max, now - c->second);
            catching_up.erase(c);
          }
        }
        amcast_now += static_cast<double>(n->amcast_pending());
        if (n->is_leader()) inflight_now += static_cast<double>(n->paxos_inflight());
        if (g < d.config().partitions) {
          depth = std::max(depth, d.server(g, i).queue_depth());
        }
      }
      queue_now += static_cast<double>(depth);
    }
    if (!in_window) return;
    ++samples;
    pending += static_cast<double>(d.engine().pending());
    inflight += inflight_now;
    amcast_pending += amcast_now;
    queue_depth += queue_now / static_cast<double>(d.config().partitions);
  }

  double mean(double sum) const { return samples == 0 ? 0.0 : sum / static_cast<double>(samples); }
};

/// Snapshot of the deltas-based layer counters at one instant.
struct Snapshot {
  std::map<std::string, std::uint64_t> counters;
  net::NetworkStats net;
  std::uint64_t events = 0;
  std::vector<Duration> partition_busy;  // per partition, max over replicas
  Duration oracle_busy = 0;              // max over oracle replicas

  static Snapshot take(harness::Deployment& d) {
    Snapshot s;
    for (const auto& [name, c] : d.metrics().counters()) s.counters[name] = c.value();
    s.net = d.network().stats();
    s.events = d.engine().events_executed();
    for (std::size_t p = 0; p < d.config().partitions; ++p) {
      Duration b = 0;
      for (std::size_t r = 0; r < d.config().replicas_per_partition; ++r) {
        b = std::max(b, d.server(p, r).busy_time());
      }
      s.partition_busy.push_back(b);
    }
    for (std::size_t r = 0; r < d.config().oracle_replicas; ++r) {
      s.oracle_busy = std::max(s.oracle_busy, d.oracle(r).busy_time());
    }
    return s;
  }

  std::uint64_t counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

// ---- one run -------------------------------------------------------------------------

struct RunOptions {
  bool sliced = true;       // run_until in kSlice steps and sample gauges
  bool spans = false;       // program span store + benchmark spans + call timing
  std::string chrome_path;  // traced run: Chrome trace output
};

constexpr Duration kSlice = msec(10);
constexpr Duration kDrainLimit = sec(10);
constexpr Duration kQuiesce = msec(500);

using MetricList = std::vector<std::pair<std::string, double>>;

struct RunOutput {
  std::string digest;
  std::vector<std::string> breaches;
  std::uint64_t attempted = 0, ok = 0, nok = 0, failed = 0;
  MetricList modelled;
  MetricList simulator;
  MetricList layers;
  // Cross-check fields (run_chirper semantics, window ending at measure end).
  double throughput_cps = 0;
  stats::Histogram window_hist;
  std::uint64_t window_ok = 0, window_nok = 0, drive_events = 0;
  std::map<std::string, std::uint64_t> counters_at_end;
};

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// FNV-1a over a canonical text rendering of the modelled outcome.
class Digest {
 public:
  void add(const std::string& s) {
    for (unsigned char ch : s) {
      h_ ^= ch;
      h_ *= 0x100000001b3ULL;
    }
    h_ ^= 0xff;
    h_ *= 0x100000001b3ULL;
  }
  void add(const std::string& k, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    add(k + "=" + buf);
  }
  std::string hex() const {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Nearest-rank percentile over `n_total` samples of which the `sorted`
/// finite ones come first and the rest are infinitely slow; an infinite
/// percentile reads as `inf_value`.
double percentile(const std::vector<std::int64_t>& sorted, std::uint64_t n_total, double q,
                  double inf_value) {
  if (n_total == 0) return 0;
  auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n_total)));
  rank = std::clamp<std::uint64_t>(rank, 1, n_total);
  if (rank > sorted.size()) return inf_value;
  return static_cast<double>(sorted[rank - 1]);
}

void write_chrome(const std::string& path, const Phases& phases, const stats::SpanStore& spans,
                  std::size_t partitions) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return;
  }
  os << "{\"traceEvents\":[\n";
  os << R"js({"ph":"M","name":"process_name","pid":1,"args":{"name":"benchmark (wall clock)"}})js";
  for (const BenchSpan& s : phases.spans()) {
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"%s\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"cpu_ms\":%.3f,\"vt_start_us\":%lld,"
                  "\"vt_end_us\":%lld,\"events\":%llu}}",
                  s.name.c_str(), s.wall_start_us, s.wall_dur_us, s.cpu_s * 1e3,
                  static_cast<long long>(s.vt_start), static_cast<long long>(s.vt_end),
                  static_cast<unsigned long long>(s.events));
    os << buf;
  }
  // Program spans (virtual microseconds), one process per group plus clients.
  const int kClientsPid = 2;
  os << ",\n{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << kClientsPid
     << R"js(,"args":{"name":"clients (virtual time)"}})js";
  for (std::size_t g = 0; g <= partitions; ++g) {
    os << ",\n{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << 10 + g
       << ",\"args\":{\"name\":\""
       << (g < partitions ? "partition " + std::to_string(g) : std::string("oracle"))
       << " (virtual time)\"}}";
  }
  for (const stats::Span& s : spans.spans()) {
    const std::size_t pid = s.group == kNoGroup ? kClientsPid : 10 + s.group.value;
    os << ",\n{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << s.node << ",\"name\":\""
       << stats::to_string(s.phase) << "\",\"ts\":" << s.start << ",\"dur\":" << s.duration()
       << ",\"args\":{\"trace_id\":" << s.trace_id << ",\"id\":" << s.id
       << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n]}\n";
}

/// One set-up of a workload's deployment, each public call timed on its own.
struct Setup {
  std::optional<harness::PreparedWorkload> prepared;
  std::unique_ptr<harness::Deployment> d;
  double prepare_s = 0;
  double deploy_s = 0;  // constructor, reserve_vars, preload_var, start
  double settle_s = 0;
};

Setup set_up(const harness::ChirperRunConfig& cfg, Phases& ph) {
  Setup s;
  s.prepare_s = ph.time("prepare_workload", nullptr,
                        [&] { s.prepared.emplace(harness::prepare_workload(cfg)); });
  const harness::PreparedWorkload& prepared = *s.prepared;
  s.deploy_s = ph.time("Deployment()", nullptr, [&] {
    const auto rule = cfg.dssmr_dest_rule;
    s.d = std::make_unique<harness::Deployment>(
        deployment_config(cfg), chirper::chirper_app_factory(cfg.app_costs),
        [rule] { return std::make_unique<core::DssmrPolicy>(rule); });
  });
  harness::Deployment& d = *s.d;
  sim::Engine& e = d.engine();
  s.deploy_s += ph.time("reserve_vars", &e, [&] { d.reserve_vars(prepared.graph.user_count()); });
  s.deploy_s += ph.time("preload_var", &e, [&] {
    for (std::size_t u = 0; u < prepared.graph.user_count(); ++u) {
      chirper::UserValue user;
      user.followers = prepared.graph.neighbors(VarId{u});
      user.following = user.followers;  // mutual-follow model
      d.preload_var(VarId{u}, d.partition_gid(prepared.part[u]), user);
    }
  });
  s.deploy_s += ph.time("start", &e, [&] { d.start(); });
  s.settle_s = ph.time("settle", &e, [&] { d.settle(); });
  return s;
}

/// Set-ups per process. setup_s is their median, so the first one's cold
/// page faults and allocator growth, which vary most between processes, do
/// not decide it; the last set-up is the one that is driven.
constexpr int kSetups = 5;

RunOutput run_once(const Workload& w, const RunOptions& opt) {
  RunOutput out;
  harness::ChirperRunConfig cfg = w.cfg;
  cfg.spans = opt.spans;
  if (opt.spans) cfg.spans_capacity = 1 << 16;  // keeps the Chrome trace loadable
  Phases ph(opt.spans);

  std::vector<double> setup_cpu;
  double setup_first_s = 0;  // from process start, cold
  Phases untimed(false);
  for (int i = 1; i < kSetups; ++i) {
    const double c0 = thread_cpu_s();
    set_up(cfg, untimed);
    setup_cpu.push_back(thread_cpu_s() - c0);
    if (i == 1) setup_first_s = c0 + setup_cpu.back();
  }
  const double setup_c0 = thread_cpu_s();
  Setup su = set_up(cfg, ph);
  harness::PreparedWorkload& prepared = *su.prepared;
  harness::Deployment& d = *su.d;
  sim::Engine& e = d.engine();

  // The nemesis schedules events that capture it: it lives until teardown.
  std::optional<fault::Nemesis> nemesis;
  if (!cfg.nemesis.empty()) {
    ph.time("Nemesis::arm", &e, [&] {
      nemesis.emplace(d, fault::resolve_plan(cfg.nemesis));
      nemesis->arm();
    });
  }

  workload::ChirperWorkload wl{prepared.graph, cfg.workload, cfg.seed * 31 + 7};
  LoadDriver driver{d, wl, w, opt.spans};
  Gauges gauges;

  const Time measure_start = e.now() + cfg.warmup;
  const Time measure_end = measure_start + cfg.measure;
  const std::uint64_t drive_ev0 = e.events_executed();
  setup_cpu.push_back(thread_cpu_s() - setup_c0);
  std::nth_element(setup_cpu.begin(), setup_cpu.begin() + kSetups / 2, setup_cpu.end());
  const double setup_s = setup_cpu[kSetups / 2];
  driver.begin(measure_start, measure_end);

  // Drives to `until` in slices; returns the thread CPU spent in run_until.
  auto drive = [&](Time until, bool in_window, const char* label) {
    double cpu = 0;
    while (e.now() < until) {
      const Time next = opt.sliced ? std::min<Time>(e.now() + kSlice, until) : until;
      cpu += ph.time(label, &e, [&] { e.run_until(next); });
      if (opt.sliced) gauges.sample(d, in_window);
    }
    return cpu;
  };

  drive(measure_start, false, "warmup slice");
  const Snapshot s0 = Snapshot::take(d);
  if (opt.spans) d.metrics().spans().clear();  // phase histograms cover the window
  const double window_cpu = drive(measure_end, true, "measure slice");
  driver.stop();
  const Snapshot s1 = Snapshot::take(d);
  if (opt.spans) d.metrics().spans().enable(false);
  const Duration outstanding_at_end = driver.outstanding_wait(measure_end);

  double drain_s = 0;
  drain_s += ph.time("drain", &e, [&] {
    const Time limit = e.now() + kDrainLimit;
    while (!driver.idle() && e.now() < limit) {
      e.run_until(std::min<Time>(e.now() + kSlice, limit));
      if (opt.sliced) gauges.sample(d, false);
    }
    e.run_until(e.now() + kQuiesce);
  });
  std::vector<std::string> violations;
  drain_s += ph.time("audit_consistency", &e, [&] { violations = d.audit_consistency(); });
  const Snapshot s2 = Snapshot::take(d);

  // ---- correctness gate ----
  const std::uint64_t unanswered = driver.unanswered();
  out.attempted = driver.attempted;
  out.ok = driver.ok_total;
  out.nok = driver.nok_total;
  out.failed = unanswered + driver.refused;
  // Audit violations are reported, not failed: the program has known
  // defects under concurrent moves (see GLOSSARY.md, audit.violations).
  for (const auto& v : violations) {
    std::fprintf(stderr, "audit: %s seed %llu: %s\n", w.name.c_str(),
                 static_cast<unsigned long long>(cfg.seed), v.c_str());
  }
  if (out.attempted != out.ok + out.nok + out.failed) {
    out.breaches.push_back("accounting: attempted != ok + nok + failed");
  }
  if (s2.counter("client.ok") != out.ok || s2.counter("client.nok") != out.nok) {
    out.breaches.push_back("accounting: client.ok/client.nok disagree with the driver");
  }
  if (out.attempted == 0 || driver.window_ok == 0) {
    out.breaches.push_back("no command completed in the measure window");
  }

  // ---- modelled (virtual time, exact per seed) ----
  const double measure_s = to_seconds(cfg.measure);
  const double window_ok = static_cast<double>(driver.window_ok);
  std::vector<std::int64_t> lat = driver.window_lat;
  std::sort(lat.begin(), lat.end());
  const std::uint64_t infinite =
      driver.window_nok + driver.refused_in_window + unanswered;
  const std::uint64_t n_samples = lat.size() + infinite;
  // An infinitely slow sample reads as the time from window start to the
  // end of the drain.
  const double horizon_us = static_cast<double>(e.now() - measure_start);
  const double p999_us = percentile(lat, n_samples, 0.999, horizon_us);
  const double stall_ms = std::max<double>(lat.empty() ? 0.0 : static_cast<double>(lat.back()),
                                           static_cast<double>(outstanding_at_end)) /
                          1e3;
  out.throughput_cps = driver.window_ok / measure_s;
  const double events_window = static_cast<double>(s1.events - s0.events);
  out.modelled = {
      {"throughput_cps", out.throughput_cps},
      {"latency_p50_us", percentile(lat, n_samples, 0.50, horizon_us)},
      {"latency_p99_us", percentile(lat, n_samples, 0.99, horizon_us)},
      {"latency_p999_us", p999_us},
      {"stall_ms", stall_ms},
      {"failed_frac", ratio(static_cast<double>(out.nok + out.failed),
                            static_cast<double>(out.attempted))},
      {"events_per_cmd", ratio(events_window, window_ok)},
      {"latency_samples", static_cast<double>(n_samples)},
  };

  // ---- per-layer (window deltas of public counters and gauges) ----
  auto delta = [&](const char* name) {
    return static_cast<double>(s1.counter(name) - s0.counter(name));
  };
  const double window_us = static_cast<double>(cfg.measure);
  double busy_sum = 0, busy_max = 0;
  for (std::size_t p = 0; p < s1.partition_busy.size(); ++p) {
    const auto b = static_cast<double>(s1.partition_busy[p] - s0.partition_busy[p]);
    busy_sum += b;
    busy_max = std::max(busy_max, b);
  }
  const double busy_mean = busy_sum / static_cast<double>(s1.partition_busy.size());
  const stats::Histogram* failover = d.metrics().find_histogram("faults.time_to_new_leader_us");
  const double hits = delta("client.cache_hits");
  const double consults = delta("client.consults");
  const double flushes = delta("batch.flushes");
  const double retries = delta("client.retries");
  const double fallbacks = delta("client.fallbacks");
  const double single = delta("server.single_partition_commands");
  const double multi = delta("server.multi_partition_commands");
  out.layers = {
      {"sim.ns_per_event", ratio(window_cpu * 1e9, events_window)},
      {"sim.pending_mean", gauges.mean(gauges.pending)},
      {"net.msgs_per_cmd",
       ratio(static_cast<double>(s1.net.messages_sent - s0.net.messages_sent), window_ok)},
      {"net.bytes_per_cmd",
       ratio(static_cast<double>(s1.net.bytes_sent - s0.net.bytes_sent), window_ok)},
      {"net.dropped", static_cast<double>(s1.net.messages_dropped - s0.net.messages_dropped)},
      {"consensus.failover_ms",
       failover != nullptr ? static_cast<double>(failover->max()) / 1e3 : 0.0},
      {"consensus.catchup_ms", static_cast<double>(gauges.catchup_max) / 1e3},
      {"consensus.lag_max", static_cast<double>(gauges.lag_max)},
      {"consensus.inflight_mean", gauges.mean(gauges.inflight)},
      {"multicast.amcast_per_cmd", ratio(delta("amcast.delivered"), window_ok)},
      {"multicast.pending_mean", gauges.mean(gauges.amcast_pending)},
      {"multicast.batch_fill", ratio(delta("batch.entries"), flushes)},
      {"multicast.batch_timer_frac", ratio(delta("batch.flush_timer"), flushes)},
      {"core.consults_per_cmd", ratio(consults, window_ok)},
      {"core.cache_hit_frac", ratio(hits, hits + consults)},
      {"core.prefetch_hit_frac", ratio(delta("locality.prefetch_hits"), hits)},
      {"core.moves_per_cmd", ratio(delta("client.moves"), window_ok)},
      {"core.moves_failed_frac", ratio(delta("server.moves_failed"), delta("client.moves"))},
      {"core.retries_per_cmd", ratio(retries, window_ok)},
      {"core.fallbacks_per_cmd", ratio(fallbacks, window_ok)},
      {"core.multi_partition_frac", ratio(multi, single + multi)},
      {"core.useful_frac", ratio(window_ok, window_ok + retries + fallbacks)},
      {"core.oracle_busy_frac",
       ratio(static_cast<double>(s1.oracle_busy - s0.oracle_busy), window_us)},
      {"smr.busy_max", ratio(busy_max, window_us)},
      {"smr.busy_imbalance", ratio(busy_max, busy_mean)},
      {"smr.queue_depth_mean", gauges.mean(gauges.queue_depth)},
      {"audit.violations", static_cast<double>(violations.size())},
      // End-to-end tails whose seed-to-seed spread is too wide for a bound.
      {"e2e.latency_p999_us", p999_us},
      {"e2e.stall_ms", stall_ms},
  };
  if (opt.spans) {
    const stats::SpanStore& sp = d.metrics().spans();
    for (stats::SpanPhase p : stats::kLatencyPhases) {
      const stats::Histogram& h = sp.phase_histogram(p);
      const std::string name(stats::to_string(p));
      out.layers.emplace_back("stats." + name + "_p50_us", static_cast<double>(h.percentile(0.5)));
      out.layers.emplace_back("stats." + name + "_p99_us", static_cast<double>(h.percentile(0.99)));
    }
    out.layers.emplace_back("stats.spans_dropped", static_cast<double>(sp.dropped()));
  }

  // ---- digest of the modelled outcome ----
  Digest dg;
  dg.add("workload=" + w.name);
  dg.add("seed", static_cast<double>(cfg.seed));
  for (const auto& [k, v] : s1.counters) dg.add("window." + k, static_cast<double>(v));
  for (const auto& [k, v] : s2.counters) dg.add("end." + k, static_cast<double>(v));
  for (const auto& [k, h] : d.metrics().histograms()) {
    dg.add(k + ".count", static_cast<double>(h.count()));
    dg.add(k + ".max", static_cast<double>(h.max()));
    dg.add(k + ".p50", static_cast<double>(h.percentile(0.5)));
  }
  dg.add("hist.count", static_cast<double>(driver.window_hist.count()));
  for (double q : {0.5, 0.9, 0.95, 0.99, 0.999}) {
    dg.add("hist.p", static_cast<double>(driver.window_hist.percentile(q)));
  }
  for (std::int64_t v : lat) dg.add("lat", static_cast<double>(v));
  dg.add("attempted", static_cast<double>(out.attempted));
  dg.add("ok", static_cast<double>(out.ok));
  dg.add("nok", static_cast<double>(out.nok));
  dg.add("failed", static_cast<double>(out.failed));
  dg.add("backlog_max", static_cast<double>(driver.backlog_max));
  dg.add("drive_events", static_cast<double>(s1.events - drive_ev0));
  for (const auto& [k, v] : out.modelled) dg.add(k, v);
  // Gauges read at slice boundaries are left out: an unsliced run has none.
  for (Duration b : s1.partition_busy) dg.add("busy", static_cast<double>(b));
  dg.add("oracle_busy", static_cast<double>(s1.oracle_busy));
  out.digest = dg.hex();

  out.window_hist = driver.window_hist;
  out.window_ok = driver.window_ok;
  out.window_nok = driver.window_nok;
  out.drive_events = s1.events - drive_ev0;
  out.counters_at_end = s1.counters;

  if (!opt.chrome_path.empty()) write_chrome(opt.chrome_path, ph, d.metrics().spans(),
                                             cfg.partitions);

  // ---- teardown ----
  const double teardown_s = ph.time("~Deployment", nullptr, [&] {
    nemesis.reset();
    su.d.reset();
  });
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  out.simulator = {
      {"sim_cps", ratio(window_ok, window_cpu)},
      {"setup_s", setup_s},
      {"run_s", thread_cpu_s()},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0},
      {"drive_window_cpu_s", window_cpu},
  };
  out.layers.insert(out.layers.end(), {
      {"harness.setup_first_s", setup_first_s},
      {"harness.prepare_s", su.prepare_s},
      {"harness.deploy_s", su.deploy_s},
      {"harness.settle_s", su.settle_s},
      {"harness.drain_audit_s", drain_s},
      {"harness.teardown_s", teardown_s},
      {"harness.issue_ns", ratio(driver.issue_ns, static_cast<double>(driver.issue_calls))},
      {"harness.generate_ns",
       ratio(driver.generate_ns, static_cast<double>(driver.generate_calls))},
      {"harness.backlog_max", static_cast<double>(driver.backlog_max)},
  });
  return out;
}

// ---- output ----------------------------------------------------------------------------

std::string json_metrics(const MetricList& m) {
  std::ostringstream os;
  os << "{";
  for (std::size_t i = 0; i < m.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", m[i].second);
    os << (i ? "," : "") << "\"" << m[i].first << "\":" << buf;
  }
  os << "}";
  return os.str();
}

void print_json(const Workload& w, const RunOutput& r) {
  std::ostringstream os;
  os << "{\"workload\":\"" << w.name << "\",\"seed\":" << w.cfg.seed << ",\"digest\":\""
     << r.digest << "\",\"correct\":" << (r.breaches.empty() ? "true" : "false")
     << ",\"breaches\":[";
  for (std::size_t i = 0; i < r.breaches.size(); ++i) {
    os << (i ? "," : "") << "\"";
    for (char c : r.breaches[i]) os << (c == '"' || c == '\\' ? ' ' : c);
    os << "\"";
  }
  os << "],\"attempted\":" << r.attempted << ",\"ok\":" << r.ok << ",\"nok\":" << r.nok
     << ",\"failed\":" << r.failed << ",\"modelled\":" << json_metrics(r.modelled)
     << ",\"simulator\":" << json_metrics(r.simulator)
     << ",\"layers\":" << json_metrics(r.layers) << "}";
  std::printf("%s\n", os.str().c_str());
}

// ---- self-tests ------------------------------------------------------------------------

/// The closed-loop composition must reproduce run_chirper for the same config
/// and seed: throughput, latency percentiles, ok/nok, drive events, counters.
int cross_check() {
  int failures = 0;
  for (const char* name : {"scale8", "overload"}) {
    Workload w = *make_workload(name, 7);
    w.cfg.warmup = msec(200);
    w.cfg.measure = msec(300);
    const harness::RunResult ref = harness::run_chirper(w.cfg);
    const RunOutput mine = run_once(w, RunOptions{});
    auto check = [&](const char* what, bool same) {
      std::printf("%-9s %-16s %s\n", name, what, same ? "ok" : "MISMATCH");
      failures += same ? 0 : 1;
    };
    std::map<std::string, std::uint64_t> ref_counters = ref.counters;
    ref_counters.erase("moves.total");  // run_chirper's derived sum
    check("throughput_cps", ref.throughput_cps == mine.throughput_cps);
    check("latency_p50_us", ref.latency_p50_us == mine.window_hist.percentile(0.50));
    check("latency_p95_us", ref.latency_p95_us == mine.window_hist.percentile(0.95));
    check("latency_p99_us", ref.latency_p99_us == mine.window_hist.percentile(0.99));
    check("ok/nok", ref.ok == mine.window_ok && ref.nok == mine.window_nok);
    check("events", ref.events_executed == mine.drive_events);
    check("counters", ref_counters == mine.counters_at_end);
    check("correct", mine.breaches.empty());
  }
  return failures == 0 ? 0 : 1;
}

/// Slice sampling and span tracing must leave the modelled digest of an
/// unsampled, untraced run unchanged.
int neutrality() {
  int failures = 0;
  for (const char* name : kWorkloadNames) {
    Workload w = *make_workload(name, 11);
    w.cfg.warmup = msec(200);
    w.cfg.measure = w.open_loop ? msec(2500) : msec(300);
    RunOptions opt;
    opt.sliced = false;
    const std::string plain = run_once(w, opt).digest;
    opt.sliced = true;
    const std::string sliced = run_once(w, opt).digest;
    opt.spans = true;
    const std::string traced = run_once(w, opt).digest;
    const bool same = plain == sliced && sliced == traced;
    std::printf("%-9s unsliced %s sliced %s traced %s %s\n", name, plain.c_str(),
                sliced.c_str(), traced.c_str(), same ? "ok" : "MISMATCH");
    failures += same ? 0 : 1;
  }
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: dssmr_bench --workload <scale8|overload|failover> --seed <n> "
               "[--spans] [--chrome <path>]\n"
               "       dssmr_bench --cross-check | --neutrality\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::optional<std::uint64_t> seed;
  RunOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (a == "--cross-check") return cross_check();
    if (a == "--neutrality") return neutrality();
    if (a == "--spans") {
      opt.spans = true;
    } else if (a == "--workload") {
      const char* v = value();
      if (v == nullptr) return usage();
      workload = v;
    } else if (a == "--seed") {
      const char* v = value();
      if (v == nullptr) return usage();
      seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--chrome") {
      const char* v = value();
      if (v == nullptr) return usage();
      opt.chrome_path = v;
    } else {
      return usage();
    }
  }
  if (!seed) return usage();
  const std::optional<Workload> w = make_workload(workload, *seed);
  if (!w) return usage();
  const RunOutput r = run_once(*w, opt);
  print_json(*w, r);
  return r.breaches.empty() ? 0 : 1;
}
