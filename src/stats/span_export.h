// Exports of the event store (stats/span.h): the Chrome trace of its
// intervals and the JSON Lines trace of its protocol-event instants.
//
// Chrome trace_event export (intervals only):
//
// Emits the JSON object format ({"traceEvents":[...]}) understood by
// chrome://tracing and Perfetto (ui.perfetto.dev). Mapping:
//   * process (pid)  = multicast group — one "process" per partition plus the
//     oracle; client-side spans share a synthetic "clients" process;
//   * thread (tid)   = the recording replica/client (its ProcessId);
//   * complete event ("ph":"X") = one finished span, ts/dur in microseconds
//     of virtual time, with trace/span/parent ids under "args".
// Process/thread name metadata events label everything, so a multi-partition
// command reads as a causal tree across partition tracks.
//
// ChromeTraceExport writes several runs (one per RunRecord) into a single
// file by giving each run its own pid block; write_chrome_trace is the
// one-store convenience.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "stats/json_writer.h"
#include "stats/span.h"

namespace dssmr::stats {

class ChromeTraceExport {
 public:
  explicit ChromeTraceExport(std::ostream& os);

  /// Appends every span of `spans` as complete events; `run_label` (when
  /// non-empty) prefixes the process names and is attached to each event.
  void add_run(const SpanStore& spans, std::string_view run_label = {});

  /// Closes the traceEvents array and the top-level object. The export is
  /// valid JSON only after finish(); call exactly once.
  void finish();

 private:
  JsonWriter w_;
  bool finished_ = false;
  int runs_ = 0;
};

/// Single-store convenience: one run, finished file.
void write_chrome_trace(std::ostream& os, const SpanStore& spans,
                        std::string_view run_label = {});

/// The `--trace` view, one JSON object per retained protocol-event instant:
/// {"t":..,"event":"..","node":..,"id":..,"arg":..}. `run` (when non-empty)
/// is added to every line so multi-run dumps concatenate into one file.
void write_trace_jsonl(std::ostream& os, const SpanStore& events, std::string_view run = {});

}  // namespace dssmr::stats
