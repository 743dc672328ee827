// The deployment's event store: intervals (causal spans) and instants.
//
// DS-SMR fails in sequences (consult -> prophecy -> move -> retry ->
// fallback), so every layer records what it did into this one store, in two
// shapes:
//
//  * Intervals (Span). Every client command gets a root span carrying a
//    trace id (the command's stable logical id). The layers the command
//    crosses — client proxy, oracle, atomic multicast, partition servers —
//    record child spans with virtual-clock start/end times, so a finished
//    trace is a tree that decomposes the command's end-to-end latency into
//    protocol phases: consult / move / amcast / queue / execute / reply. The
//    client proxy attributes every microsecond of a command's life to exactly
//    one phase (server timestamps piggybacked on replies split the post-send
//    window), so the phase histograms sum to the end-to-end latency exactly.
//    Server-side spans are recorded with fold=false: they are an additional
//    *view* of time already attributed by the client, not new latency.
//  * Instants (Instant). Typed point events with a virtual timestamp —
//    protocol steps, leader changes, fault edges, scale events. An instant
//    that carries a label is also a timeline mark for the telemetry
//    dashboard (fault windows, repartitionings).
//
// Three views read the store: the Chrome trace (intervals, span_export.h),
// the `--trace` JSONL and run-record `trace` summary (protocol-event
// instants), and the run-record `telemetry.marks` (labelled instants).
//
// Recording is off by default and each kind has its own switch: intervals
// with enable(), protocol-event instants with `trace`, marks with `marks`
// (see enable_instants). Every record() starts with a cheap flag check, so
// instrumented hot paths cost one predictable branch when disabled.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.h"
#include "stats/histogram.h"

namespace dssmr::stats {

enum class SpanPhase : std::uint8_t {
  kCommand,   // root: client issue() -> reply handed to the application
  kConsult,   // client sent a consult -> prophecy received
  kMove,      // fused move's wait at its destination: delivery -> last shipment in
  kBatch,     // batching wait: command handed to the batcher -> batch flushed
  kAmcast,    // command submitted to atomic multicast -> ordered delivery
  kQueue,     // delivery -> execution start (ownership checks, input waits)
  kExecute,   // execution occupying the partition's simulated CPU
  kReply,     // execution end -> reply received by the client
  kFallback,  // S-SMR fallback window (all-partition multicast -> reply)
  kOracle,    // oracle-side consult handling (server view, not a client phase)
  kPrefetch,  // marker: the cache fast path was served from prefetched entries
  // Add new phases directly above and extend to_string(); the sentinel keeps
  // kSpanPhases (and every per-phase array) sized automatically.
  kPhaseCount_,
};

inline constexpr std::size_t kSpanPhases = static_cast<std::size_t>(SpanPhase::kPhaseCount_);
static_assert(kSpanPhases == static_cast<std::size_t>(SpanPhase::kPrefetch) + 1,
              "SpanPhase changed: point this assert at the new last phase and add "
              "its to_string() case (stats_test checks exhaustiveness)");

std::string_view to_string(SpanPhase p);

/// The client-attributed phases, in decomposition order: for every finished
/// command, the durations folded under these phases tile [issue, finish], so
/// their histogram totals sum exactly to the kCommand histogram total.
/// (kBatch appears only when submission batching is on — the batcher's flush
/// time splits the post-send window; unbatched runs never record it.
/// kFallback covers a window already decomposed into amcast/queue/execute/
/// reply, kOracle is a server-side view, and kPrefetch is a locality
/// fast-path marker over already-attributed time; all are fold=false.)
inline constexpr std::array<SpanPhase, 7> kLatencyPhases = {
    SpanPhase::kConsult, SpanPhase::kMove,    SpanPhase::kBatch,  SpanPhase::kAmcast,
    SpanPhase::kQueue,   SpanPhase::kExecute, SpanPhase::kReply,
};

struct Span {
  std::uint64_t trace_id = 0;  // root command id, shared by the whole tree
  std::uint64_t id = 0;        // unique within one SpanStore
  std::uint64_t parent = 0;    // 0 = attach to the trace's root span
  SpanPhase phase{};
  Time start = 0;
  Time end = 0;
  std::uint32_t node = 0;      // recording process id
  GroupId group = kNoGroup;    // owning group (kNoGroup for client-side spans)
  std::int64_t arg = 0;        // phase-specific detail (dest group, retry, ...)
  /// True when this span's duration was folded into the phase histograms —
  /// i.e. it belongs to the client-attributed latency decomposition. Set by
  /// SpanStore::record() from its `fold` argument.
  bool folded = false;

  Duration duration() const { return end - start; }
};

enum class InstantKind : std::uint8_t {
  kConsult,        // client sent a consult to the oracle
  kProphecy,       // oracle leader answered a consult
  kMoveIssued,     // a client multicast one attempt of a fused move
  kMoveApplied,    // destination leader installed every requested variable
  kMoveFailed,     // destination leader gave up >= 1 unshipped variable (stale mapping)
  kRetry,          // client retried its command (stale cache or failed move)
  kFallback,       // client fell back to S-SMR all-partition execution
  kLeaderChange,   // a Paxos replica became leader of its group
  kAmcastDeliver,  // atomic multicast delivered a message (leader-side)
  kFaultInject,    // nemesis injected a disruption (crash, leader kill, cut, drop burst)
  kFaultRecover,   // nemesis restored something (recover, heal, drop burst end)
  kPartitionAdded,     // oracle admitted a fresh partition (kReconfig add delivered)
  kPartitionDraining,  // oracle marked a partition draining (kReconfig retire delivered)
  kPartitionRetired,   // nemesis observed the drain barrier and retired the partition
  kRebalanceMove,      // oracle leader issued one chunked rebalance move
  kMark,  // a timeline mark with no protocol event (repartitioning, straggler sweep)
  // Add new kinds directly above and extend to_string(); the sentinel keeps
  // kInstantKinds (and every count array) sized automatically.
  kKindCount_,
};

inline constexpr std::size_t kInstantKinds = static_cast<std::size_t>(InstantKind::kKindCount_);
static_assert(kInstantKinds == static_cast<std::size_t>(InstantKind::kMark) + 1,
              "InstantKind changed: point this assert at the new last kind and add "
              "its to_string() case (stats_test checks exhaustiveness)");

std::string_view to_string(InstantKind k);

/// The telemetry mark kind of a labelled instant: fault injections open a
/// fault window ("fault_begin"), recoveries close it ("fault_end"), anything
/// else is an "event".
std::string_view mark_kind(InstantKind k);

struct Instant {
  Time t = 0;               // virtual timestamp (microseconds)
  InstantKind kind{};       //
  std::uint32_t node = 0;   // recording process id
  std::uint64_t id = 0;     // command / consult / multicast id
  std::int64_t arg = 0;     // kind-specific detail (dest group, retry count, ...)
  std::uint32_t label = 0;  // 0 = no mark; else 1 + index into the store's labels
};

class SpanStore {
 public:
  // ---- intervals -------------------------------------------------------------

  bool enabled() const { return enabled_; }
  void enable(bool on = true) { enabled_ = on; }

  /// Caps the retained span vector; per-phase counts and histograms keep
  /// accumulating past the cap and dropped() reports discarded spans.
  void set_capacity(std::size_t cap) { spans_.capacity = cap; }

  /// Pre-allocates a span id (so a root span recorded at command completion
  /// can be referenced as `parent` by children recorded earlier).
  std::uint64_t alloc_id() { return ++last_id_; }

  /// Appends a finished span; assigns an id if `s.id == 0`. `fold` adds the
  /// duration to the phase histogram — client-attributed decomposition spans
  /// fold, server-side views pass false to avoid double counting.
  void record(Span s, bool fold = true) {
    if (!enabled_) return;
    ++counts_[static_cast<std::size_t>(s.phase)];
    s.folded = fold;
    if (fold) phase_hist_[static_cast<std::size_t>(s.phase)].record(s.duration());
    if (s.id == 0) s.id = ++last_id_;
    spans_.add(s);
  }

  const std::vector<Span>& spans() const { return spans_.items; }
  std::uint64_t count(SpanPhase p) const { return counts_[static_cast<std::size_t>(p)]; }
  std::uint64_t dropped() const { return spans_.dropped; }

  const Histogram& phase_histogram(SpanPhase p) const {
    return phase_hist_[static_cast<std::size_t>(p)];
  }
  /// Any phase histogram non-empty? (Gates the run-record `phases` section.)
  bool has_phase_data() const;

  /// Human-readable group labels for exports ("partition 0", "oracle").
  void set_group_name(GroupId g, std::string name) { group_names_[g.value] = std::move(name); }
  const std::map<std::uint32_t, std::string>& group_names() const { return group_names_; }

  // ---- instants --------------------------------------------------------------

  /// `trace` keeps every protocol-event instant (the `--trace` view);
  /// `marks` keeps labelled instants (the telemetry timeline). An instant
  /// that is neither traced nor a kept mark is not recorded at all.
  void enable_instants(bool trace, bool marks) {
    tracing_ = trace;
    marking_ = marks;
  }
  bool tracing() const { return tracing_; }
  bool marking() const { return marking_; }

  /// Caps the retained instant vector (default 1<<21, independent of the
  /// span cap); per-kind counts keep accumulating past it.
  void set_instant_capacity(std::size_t cap) { instants_.capacity = cap; }

  /// Records an instant at virtual time `t`. kMark instants are marks only
  /// and never part of the trace view; a non-empty `label` makes any instant
  /// a timeline mark too. Labels live in a side table so the instant list
  /// stays compact.
  void record(InstantKind kind, Time t, std::uint32_t node = 0, std::uint64_t id = 0,
              std::int64_t arg = 0, std::string label = {}) {
    const bool traced = tracing_ && kind != InstantKind::kMark;
    const bool marked = marking_ && !label.empty();
    if (!traced && !marked) return;
    if (traced) ++instant_counts_[static_cast<std::size_t>(kind)];
    const auto label_ref = static_cast<std::uint32_t>(label.empty() ? 0 : labels_.size() + 1);
    if (instants_.add({t, kind, node, id, arg, label_ref}) && label_ref != 0) {
      labels_.push_back(std::move(label));
    }
  }

  /// Retained instants of every kind, in record order.
  const std::vector<Instant>& instants() const { return instants_.items; }
  /// The instant's mark label ("" when it has none).
  std::string_view label(const Instant& e) const {
    return e.label == 0 ? std::string_view{} : std::string_view{labels_[e.label - 1]};
  }
  /// Trace-view instants of `kind` recorded, including those past the cap.
  std::uint64_t count(InstantKind kind) const {
    return instant_counts_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t dropped_instants() const { return instants_.dropped; }

  /// The `--trace` view: protocol-event instants, recorded while tracing.
  bool in_trace(const Instant& e) const { return tracing_ && e.kind != InstantKind::kMark; }
  /// The telemetry view: labelled instants, recorded while marking.
  bool is_mark(const Instant& e) const { return marking_ && e.label != 0; }

  /// Drops spans, instants, counts and histograms; keeps the enable flags,
  /// capacities and names.
  void clear();

 private:
  /// A retained vector with a cap: past it, items are counted as dropped
  /// instead of stored. Intervals and instants each keep one, so neither
  /// kind can evict the other.
  template <typename T>
  struct Retained {
    std::vector<T> items;
    std::size_t capacity = 1u << 20;
    std::uint64_t dropped = 0;

    /// Keeps `x` if there is room, else counts it dropped; true if kept.
    bool add(T x) {
      if (items.size() >= capacity) {
        ++dropped;
        return false;
      }
      items.push_back(std::move(x));
      return true;
    }
    void clear() {
      items.clear();
      dropped = 0;
    }
  };

  bool enabled_ = false;
  bool tracing_ = false;
  bool marking_ = false;
  std::uint64_t last_id_ = 0;
  std::array<std::uint64_t, kSpanPhases> counts_{};
  std::array<Histogram, kSpanPhases> phase_hist_{};
  Retained<Span> spans_;
  std::array<std::uint64_t, kInstantKinds> instant_counts_{};
  /// Twice the span cap: E10's traced run (fig_elastic_scaleout) records
  /// about 1.07M instants, every one of which its `--trace` JSONL must hold.
  Retained<Instant> instants_{.items = {}, .capacity = 1u << 21, .dropped = 0};
  std::vector<std::string> labels_;
  std::map<std::uint32_t, std::string> group_names_;
};

/// Read-only trace-analysis API over a SpanStore: tests assert causal
/// structure with it ("a retried multi-partition command contains >= 2
/// consult spans and exactly one fallback span").
class SpanQuery {
 public:
  explicit SpanQuery(const SpanStore& store) : store_(store) {}

  /// Distinct trace ids, in first-recorded order.
  std::vector<std::uint64_t> trace_ids() const;

  /// All spans of one trace, ordered by (start, id).
  std::vector<const Span*> trace(std::uint64_t trace_id) const;

  /// The trace's root span (phase kCommand), or nullptr if it never finished.
  const Span* root(std::uint64_t trace_id) const;

  /// Spans of one phase within a trace, ordered by (start, id).
  std::vector<const Span*> select(std::uint64_t trace_id, SpanPhase p) const;
  std::size_t count(std::uint64_t trace_id, SpanPhase p) const {
    return select(trace_id, p).size();
  }

  /// Children of `parent` within the trace. Spans recorded with parent 0 by
  /// layers that only know the trace id attach to the root span.
  std::vector<const Span*> children(std::uint64_t trace_id, std::uint64_t parent) const;

  /// Sum of the trace's client-attributed phase durations (kLatencyPhases);
  /// equals the root span's duration for a finished command.
  Duration attributed_total(std::uint64_t trace_id) const;

 private:
  const SpanStore& store_;
};

}  // namespace dssmr::stats
