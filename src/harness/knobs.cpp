#include "harness/knobs.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <type_traits>
#include <variant>

#include "fault/fault_plan.h"
#include "harness/deployment.h"
#include "stats/run_record.h"

namespace dssmr::harness {
namespace {

/// How a flag's value is parsed and validated.
enum class Kind : std::uint8_t {
  kSwitch,     // takes no value
  kPath,       // optional value; absent = a default file named after the bench
  kThreads,    // positive count
  kCount,      // non-negative count
  kMicros,     // positive microsecond count
  kFaultPlan,  // shipped plan name or DSL that fault::resolve_plan accepts
};

struct KindInfo {
  const char* syntax;  // value placeholder in the usage text
  const char* needs;   // what the error message says a bad value lacks
};

// Indexed by Kind.
constexpr KindInfo kKinds[] = {
    {"", ""},
    {"[path]", ""},
    {"N", "a positive thread count"},
    {"N", "a non-negative count"},
    {"<us>", "a positive microsecond count"},
    {"<plan>", "a plan name or fault-plan spec"},
};

const KindInfo& info(Kind kind) { return kKinds[static_cast<std::size_t>(kind)]; }

template <class T>
using Field = T BenchOptions::*;

bool batching_on(const RunKnobs& k) { return k.batch_size > 0 || k.pipeline_depth > 0; }
bool locality_on(const RunKnobs& k) { return k.prefetch_k > 0; }

struct Row {
  const char* flag;
  Kind kind;
  std::variant<Field<bool>, Field<std::size_t>, Field<Duration>, Field<std::string>> field;
  /// kPath: the default file, `*` standing for the experiment name.
  const char* file = nullptr;
  /// A switch the flag also turns on once its value is accepted.
  Field<bool> implies = nullptr;
  /// Run-record meta key (nullptr = not recorded), emitted when `gate`
  /// holds (nullptr = always).
  const char* meta = nullptr;
  bool (*gate)(const RunKnobs&) = nullptr;
  /// Meta text of a false switch or an empty plan, and of a true switch.
  const char* off = "false";
  const char* on = "true";
  const char* help = nullptr;
};

// Run-record meta follows row order.
constexpr Row kRows[] = {
    {.flag = "--json", .kind = Kind::kPath, .field = &BenchOptions::json_path,
     .file = "BENCH_*.json", .help = "write the machine-readable run record (docs/schema.md)"},
    {.flag = "--jobs", .kind = Kind::kThreads, .field = &BenchOptions::jobs,
     .help = "run sweep points on N threads; output stays byte-identical to a serial run"},
    {.flag = "--trace", .kind = Kind::kPath, .field = &BenchOptions::trace_path,
     .file = "TRACE_*.jsonl", .implies = &BenchOptions::trace,
     .help = "dump the structured protocol event trace as JSON Lines"},
    {.flag = "--trace-chrome", .kind = Kind::kPath, .field = &BenchOptions::chrome_path,
     .file = "CHROME_*.json", .implies = &BenchOptions::spans,
     .help = "export per-command causal spans as Chrome trace_event JSON; also adds the "
             "run record's `phases` section"},
    {.flag = "--nemesis", .kind = Kind::kFaultPlan, .field = &BenchOptions::nemesis,
     .meta = "nemesis", .off = "none",
     .help = "arm a deterministic fault and elasticity schedule (crashes, cuts, drops, live "
             "partition add/remove): shipped plan name or DSL (src/fault/fault_plan.h)"},
    {.flag = "--batch-size", .kind = Kind::kCount, .field = &BenchOptions::batch_size,
     .meta = "batch_size", .gate = batching_on,
     .help = "pack up to N logical submissions into one atomic-multicast message; 0 = off"},
    {.flag = "--batch-delay-us", .kind = Kind::kMicros, .field = &BenchOptions::batch_delay,
     .meta = "batch_delay_us", .gate = batching_on,
     .help = "max virtual-time wait before a non-full batch flushes"},
    {.flag = "--pipeline-depth", .kind = Kind::kCount, .field = &BenchOptions::pipeline_depth,
     .meta = "pipeline_depth", .gate = batching_on,
     .help = "each Paxos leader keeps N proposals in flight; 0 = unbounded"},
    {.flag = "--prefetch-k", .kind = Kind::kCount, .field = &BenchOptions::prefetch_k,
     .meta = "prefetch_k", .gate = locality_on,
     .help = "consult replies prefetch up to N co-accessed neighbour locations into the "
             "client's cache; 0 = off"},
    {.flag = "--telemetry", .kind = Kind::kSwitch, .field = &BenchOptions::telemetry,
     .meta = "telemetry", .off = "off", .on = "on",
     .help = "arm the flight recorder: windowed gauges, partition heat and latency in the "
             "run record's `telemetry` section"},
};

const Row* find_row(const char* flag) {
  for (const Row& row : kRows) {
    if (std::strcmp(row.flag, flag) == 0) return &row;
  }
  return nullptr;
}

/// The field's value as run-record meta text.
std::string text(const Row& row, const BenchOptions& o) {
  return std::visit(
      [&](auto field) -> std::string {
        const auto& v = o.*field;
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, bool>) {
          return v ? row.on : row.off;
        } else if constexpr (std::is_same_v<T, std::string>) {
          return v.empty() ? row.off : v;
        } else {
          return std::to_string(v);
        }
      },
      row.field);
}

/// Parses `value` (nullptr = the flag had none) into the row's field.
/// Returns the error message, empty on success.
std::string assign(const Row& row, const char* value, const std::string& experiment,
                   BenchOptions& out) {
  const std::string v = value != nullptr ? value : "";
  const std::string need = std::string(row.flag) + " needs " + info(row.kind).needs;
  switch (row.kind) {
    case Kind::kSwitch:
      out.*std::get<Field<bool>>(row.field) = true;
      return {};
    case Kind::kPath: {
      std::string path = row.file;
      path.replace(path.find('*'), 1, experiment);
      out.*std::get<Field<std::string>>(row.field) = value != nullptr ? v : path;
      return {};
    }
    case Kind::kThreads:
    case Kind::kCount: {
      const std::optional<long long> n = parse_integer(v);
      if (!n || *n < (row.kind == Kind::kThreads ? 1 : 0)) return need;
      out.*std::get<Field<std::size_t>>(row.field) = static_cast<std::size_t>(*n);
      return {};
    }
    case Kind::kMicros: {
      const std::optional<long long> us = parse_integer(v);
      if (!us || *us <= 0) return need;
      out.*std::get<Field<Duration>>(row.field) = static_cast<Duration>(*us);
      return {};
    }
    case Kind::kFaultPlan:
      if (v.empty()) return need;
      // Surface plan errors here, so the sweep stays plan-free and finish()
      // can return 2 instead of crashing mid-run.
      try {
        fault::resolve_plan(v);
      } catch (const std::invalid_argument& e) {
        return e.what();
      }
      out.*std::get<Field<std::string>>(row.field) = v;
      return {};
  }
  return {};
}

}  // namespace

std::optional<long long> parse_integer(std::string_view s) {
  long long n = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), n);
  if (s.empty() || ec != std::errc{} || end != s.data() + s.size()) return std::nullopt;
  return n;
}

void apply_knobs(const RunKnobs& knobs, DeploymentConfig& dep) {
  static_cast<Knobs&>(dep) = knobs;
  // Elastic gating: the flag interns the elastic.* counters and registers the
  // partition-count gauge, so it is set only when the plan adds or retires a
  // partition — every other run stays byte-identical to the pre-elasticity
  // output.
  dep.elastic = !knobs.nemesis.empty() && fault::resolve_plan(knobs.nemesis).elastic();
}

void add_knob_meta(const RunKnobs& knobs, stats::RunRecord& rec) {
  BenchOptions opts;  // the table addresses BenchOptions fields
  static_cast<RunKnobs&>(opts) = knobs;
  for (const Row& row : kRows) {
    if (row.meta != nullptr && (row.gate == nullptr || row.gate(knobs))) {
      rec.add_meta(row.meta, text(row, opts));
    }
  }
}

bool parse_bench_flags(int argc, const char* const* argv, const std::string& experiment,
                       BenchOptions& out) {
  bool ok = true;
  for (int i = 1; i < argc; ++i) {
    const Row* row = find_row(argv[i]);
    if (row == nullptr) {
      std::fprintf(stderr, "unknown flag %s; supported flags:\n%s", argv[i],
                   bench_flag_usage().c_str());
      ok = false;
      continue;
    }
    // The next argument is this flag's value unless it is a flag itself.
    const char* value = nullptr;
    if (row->kind != Kind::kSwitch && i + 1 < argc && argv[i + 1][0] != '-') value = argv[++i];
    if (const std::string error = assign(*row, value, experiment, out); !error.empty()) {
      std::fprintf(stderr, "%s\n", error.c_str());
      ok = false;
    } else if (row->implies != nullptr) {
      out.*row->implies = true;
    }
  }
  return ok;
}

std::string bench_flag_usage() {
  const BenchOptions defaults;
  std::string usage;
  for (const Row& row : kRows) {
    std::string syntax = std::string(row.flag) + " " + info(row.kind).syntax;
    syntax.resize(std::max<std::size_t>(syntax.size(), 26), ' ');
    usage += "  " + syntax + " " + row.help;
    if (row.file != nullptr) {
      std::string file = row.file;
      usage += " (default file " + file.replace(file.find('*'), 1, "<experiment>") + ")";
    } else if (std::holds_alternative<Field<std::size_t>>(row.field) ||
               std::holds_alternative<Field<Duration>>(row.field)) {
      usage += " (default " + text(row, defaults) + ")";
    }
    usage += "\n";
  }
  return usage;
}

}  // namespace dssmr::harness
