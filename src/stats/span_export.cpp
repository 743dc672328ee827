#include "stats/span_export.h"

#include <map>
#include <ostream>
#include <set>
#include <utility>

#include "common/assert.h"

namespace dssmr::stats {
namespace {

/// Pid block reserved per run so several runs coexist in one file: pid 0 of
/// the block is the synthetic clients process, groups follow at 1 + gid.
constexpr std::uint64_t kPidsPerRun = 100000;

std::uint64_t span_pid(const Span& s, std::uint64_t base) {
  return s.group == kNoGroup ? base : base + 1 + s.group.value;
}

}  // namespace

ChromeTraceExport::ChromeTraceExport(std::ostream& os) : w_(os) {
  w_.begin_object();
  w_.key("traceEvents");
  w_.begin_array();
}

void ChromeTraceExport::add_run(const SpanStore& spans, std::string_view run_label) {
  DSSMR_ASSERT_MSG(!finished_, "add_run after finish");
  const std::uint64_t base = static_cast<std::uint64_t>(runs_++) * kPidsPerRun;
  const std::string prefix = run_label.empty() ? std::string{} : std::string(run_label) + "/";

  // Metadata first: name every process and thread that will appear.
  std::map<std::uint64_t, std::string> process_names;
  std::set<std::pair<std::uint64_t, std::uint64_t>> threads;
  for (const Span& s : spans.spans()) {
    const std::uint64_t pid = span_pid(s, base);
    if (!process_names.contains(pid)) {
      std::string name;
      if (s.group == kNoGroup) {
        name = "clients";
      } else if (auto it = spans.group_names().find(s.group.value);
                 it != spans.group_names().end()) {
        name = it->second;
      } else {
        name = "group " + std::to_string(s.group.value);
      }
      process_names.emplace(pid, prefix + name);
    }
    threads.emplace(pid, s.node);
  }
  for (const auto& [pid, name] : process_names) {
    w_.begin_object();
    w_.field("name", "process_name");
    w_.field("ph", "M");
    w_.field("pid", pid);
    w_.key("args");
    w_.begin_object();
    w_.field("name", name);
    w_.end_object();
    w_.end_object();
  }
  for (const auto& [pid, tid] : threads) {
    w_.begin_object();
    w_.field("name", "thread_name");
    w_.field("ph", "M");
    w_.field("pid", pid);
    w_.field("tid", tid);
    w_.key("args");
    w_.begin_object();
    w_.field("name", "node " + std::to_string(tid));
    w_.end_object();
    w_.end_object();
  }

  for (const Span& s : spans.spans()) {
    w_.begin_object();
    w_.field("name", to_string(s.phase));
    w_.field("cat", s.group == kNoGroup ? "client" : "server");
    w_.field("ph", "X");
    w_.field("ts", static_cast<std::int64_t>(s.start));
    w_.field("dur", static_cast<std::int64_t>(s.duration()));
    w_.field("pid", span_pid(s, base));
    w_.field("tid", static_cast<std::uint64_t>(s.node));
    w_.key("args");
    w_.begin_object();
    w_.field("trace_id", s.trace_id);
    w_.field("span_id", s.id);
    w_.field("parent", s.parent);
    w_.field("arg", s.arg);
    w_.field("folded", s.folded);
    if (!run_label.empty()) w_.field("run", run_label);
    w_.end_object();
    w_.end_object();
  }
}

void ChromeTraceExport::finish() {
  DSSMR_ASSERT_MSG(!finished_, "finish called twice");
  finished_ = true;
  w_.end_array();
  w_.field("displayTimeUnit", "ms");
  w_.end_object();
}

void write_chrome_trace(std::ostream& os, const SpanStore& spans,
                        std::string_view run_label) {
  ChromeTraceExport exp(os);
  exp.add_run(spans, run_label);
  exp.finish();
  os << '\n';
}

void write_trace_jsonl(std::ostream& os, const SpanStore& events, std::string_view run) {
  const std::string prefix =
      run.empty() ? std::string{} : "\"run\":\"" + json_escaped(run) + "\",";
  for (const Instant& e : events.instants()) {
    if (!events.in_trace(e)) continue;
    os << "{" << prefix << "\"t\":" << e.t << ",\"event\":\"" << to_string(e.kind)
       << "\",\"node\":" << e.node << ",\"id\":" << e.id << ",\"arg\":" << e.arg << "}\n";
  }
}

}  // namespace dssmr::stats
