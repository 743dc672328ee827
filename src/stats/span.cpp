#include "stats/span.h"

#include <algorithm>

namespace dssmr::stats {

std::string_view to_string(SpanPhase p) {
  switch (p) {
    case SpanPhase::kCommand: return "command";
    case SpanPhase::kConsult: return "consult";
    case SpanPhase::kMove: return "move";
    case SpanPhase::kBatch: return "batch";
    case SpanPhase::kAmcast: return "amcast";
    case SpanPhase::kQueue: return "queue";
    case SpanPhase::kExecute: return "execute";
    case SpanPhase::kReply: return "reply";
    case SpanPhase::kFallback: return "fallback";
    case SpanPhase::kOracle: return "oracle";
    case SpanPhase::kPrefetch: return "prefetch";
    case SpanPhase::kRepair: return "repair";
    case SpanPhase::kPhaseCount_: break;  // not a real phase
  }
  return "unknown";
}

std::string_view to_string(InstantKind k) {
  switch (k) {
    case InstantKind::kConsult: return "consult";
    case InstantKind::kProphecy: return "prophecy";
    case InstantKind::kMoveIssued: return "move_issued";
    case InstantKind::kMoveApplied: return "move_applied";
    case InstantKind::kMoveFailed: return "move_failed";
    case InstantKind::kRetry: return "retry";
    case InstantKind::kFallback: return "fallback";
    case InstantKind::kLeaderChange: return "leader_change";
    case InstantKind::kAmcastDeliver: return "amcast_deliver";
    case InstantKind::kFaultInject: return "fault_inject";
    case InstantKind::kFaultRecover: return "fault_recover";
    case InstantKind::kCacheRepair: return "cache_repair";
    case InstantKind::kRepairReroute: return "repair_reroute";
    case InstantKind::kPartitionAdded: return "partition_added";
    case InstantKind::kPartitionDraining: return "partition_draining";
    case InstantKind::kPartitionRetired: return "partition_retired";
    case InstantKind::kRebalanceMove: return "rebalance_move";
    case InstantKind::kMark: return "mark";
    case InstantKind::kKindCount_: break;  // not a real kind
  }
  return "unknown";
}

std::string_view mark_kind(InstantKind k) {
  switch (k) {
    case InstantKind::kFaultInject: return "fault_begin";
    case InstantKind::kFaultRecover: return "fault_end";
    default: return "event";
  }
}

bool SpanStore::has_phase_data() const {
  for (const Histogram& h : phase_hist_) {
    if (h.count() > 0) return true;
  }
  return false;
}

void SpanStore::clear() {
  spans_.clear();
  counts_.fill(0);
  for (Histogram& h : phase_hist_) h.reset();
  last_id_ = 0;
  instants_.clear();
  instant_counts_.fill(0);
  labels_.clear();
}

// ---- SpanQuery --------------------------------------------------------------

namespace {

void sort_by_start(std::vector<const Span*>& spans) {
  std::sort(spans.begin(), spans.end(), [](const Span* a, const Span* b) {
    return std::pair(a->start, a->id) < std::pair(b->start, b->id);
  });
}

}  // namespace

std::vector<std::uint64_t> SpanQuery::trace_ids() const {
  std::vector<std::uint64_t> ids;
  for (const Span& s : store_.spans()) {
    if (std::find(ids.begin(), ids.end(), s.trace_id) == ids.end()) {
      ids.push_back(s.trace_id);
    }
  }
  return ids;
}

std::vector<const Span*> SpanQuery::trace(std::uint64_t trace_id) const {
  std::vector<const Span*> out;
  for (const Span& s : store_.spans()) {
    if (s.trace_id == trace_id) out.push_back(&s);
  }
  sort_by_start(out);
  return out;
}

const Span* SpanQuery::root(std::uint64_t trace_id) const {
  for (const Span& s : store_.spans()) {
    if (s.trace_id == trace_id && s.phase == SpanPhase::kCommand) return &s;
  }
  return nullptr;
}

std::vector<const Span*> SpanQuery::select(std::uint64_t trace_id, SpanPhase p) const {
  std::vector<const Span*> out;
  for (const Span& s : store_.spans()) {
    if (s.trace_id == trace_id && s.phase == p) out.push_back(&s);
  }
  sort_by_start(out);
  return out;
}

std::vector<const Span*> SpanQuery::children(std::uint64_t trace_id,
                                             std::uint64_t parent) const {
  const Span* r = root(trace_id);
  const bool parent_is_root = r != nullptr && r->id == parent;
  std::vector<const Span*> out;
  for (const Span& s : store_.spans()) {
    if (s.trace_id != trace_id || s.id == parent) continue;
    if (s.parent == parent || (parent_is_root && s.parent == 0 && s.phase != SpanPhase::kCommand)) {
      out.push_back(&s);
    }
  }
  sort_by_start(out);
  return out;
}

Duration SpanQuery::attributed_total(std::uint64_t trace_id) const {
  Duration total = 0;
  for (const Span& s : store_.spans()) {
    if (s.trace_id != trace_id || !s.folded || s.phase == SpanPhase::kCommand) continue;
    total += s.duration();
  }
  return total;
}

}  // namespace dssmr::stats
