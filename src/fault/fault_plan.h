// Declarative plans for deterministic nemesis runs.
//
// A FaultPlan is a list of virtual-time-triggered events — crash or recover a
// replica, kill whatever process currently leads a group, cut or heal links,
// raise the network drop probability for a while, or add and retire
// partitions. Plans are data: the same plan against the same deployment and
// seed replays the same event sequence, so runs stay byte-for-byte
// reproducible (the acceptance bar every shipped plan is tested against).
//
// Plans are written in a compact one-line DSL so benches can take them on the
// command line (--nemesis) and CI can enumerate them:
//
//   event ::= action '@' time        (times relative to Nemesis::arm())
//   plan  ::= event (';' event)*
//
//   crash:<proc>          crash one process      (p0r1, oracle2)
//   recover:<proc>        undo a crash           (also `recover:last` — the
//                         most recent crash/kill victim still down)
//   kill-leader:<group>   crash the CURRENT leader of p<i> or oracle,
//                         resolved at fire time, not at parse time
//   cut:A|B               cut every link between process sets A and B
//   cut:A>B               directional: A can no longer reach B, but B
//                         still reaches A (asymmetric partition)
//   heal                  restore every link cut so far
//   drop:<p>@<t>+<dur>    at <t>, set drop probability to <p> for <dur>, then
//                         restore the previous value
//   add-partition         boot one fresh replica group; the oracle admits it
//                         via an atomically multicast membership record and
//                         rebalances variables onto it
//   remove-partition:<i>  drain partition <i> (all its variables move to the
//                         remaining live partitions), wait for the drain
//                         barrier, then retire it
//
// Process sets are '+'-joined elements; an element is a process (p0r1,
// oracle2) or a whole group (p0 = all replicas of partition 0, oracle = all
// oracle replicas). Times take us/ms/s suffixes: `kill-leader:p0@120ms`.
// Partition indexes are dense over every partition ever created: in a
// k-partition deployment the initial partitions are 0..k-1 and the first
// added one is k, so a plan may fault a partition it added earlier.
//
// resolve_plan() also accepts the names of the shipped plans (the ones CI
// smoke-tests and lincheck covers); shipped_plans() enumerates them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace dssmr::fault {

enum class FaultAction : std::uint8_t {
  kCrash,
  kRecover,
  kKillLeader,
  kCut,
  kHeal,
  kDropBurst,
  kAddPartition,
  kRemovePartition,
};

/// Adds or retires a partition (the deployment must be elastic).
inline bool is_scale(FaultAction a) {
  return a == FaultAction::kAddPartition || a == FaultAction::kRemovePartition;
}

/// A process or process set, resolved against a Deployment at fire time (the
/// plan itself is deployment-agnostic: `p2r1` is valid in any deployment with
/// at least 3 partitions of 2 replicas).
struct FaultTarget {
  enum class Kind : std::uint8_t {
    kReplica,        // p<i>r<j>
    kOracleReplica,  // oracle<r>
    kPartition,      // p<i> (whole group; kill-leader / cut sets / remove)
    kOracle,         // oracle (whole group)
    kLastVictim,     // `last`: most recent crash / kill-leader victim still down
  };
  Kind kind = Kind::kReplica;
  std::uint32_t partition = 0;
  std::uint32_t replica = 0;

  bool operator==(const FaultTarget&) const = default;
};

struct FaultEvent {
  Duration at = 0;  // relative to Nemesis::arm()
  FaultAction action = FaultAction::kHeal;
  FaultTarget target{};               // crash / recover / kill-leader / remove
  std::vector<FaultTarget> side_a;    // cut
  std::vector<FaultTarget> side_b;    // cut
  bool directed = false;              // cut: only a -> b
  double drop_probability = 0.0;      // drop burst
  Duration duration = 0;              // drop burst
};

struct FaultPlan {
  std::string name;  // shipped-plan name, or "custom"
  std::string spec;  // the DSL text the plan was parsed from
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }
  /// Some event adds or retires a partition.
  bool elastic() const;
};

/// Parses the DSL above. Throws std::invalid_argument with a pointed message
/// on malformed input (unknown action, bad target, missing '@time', ...).
FaultPlan parse_plan(std::string_view spec);

/// Named plan shipped with the repo (and exercised by CI + lincheck).
struct ShippedPlan {
  std::string_view name;
  std::string_view spec;
  std::string_view what;  // one-line description for --help / docs
};
const std::vector<ShippedPlan>& shipped_plans();

/// Looks `name_or_spec` up in shipped_plans() first; otherwise parses it as
/// DSL. This is what --nemesis feeds.
FaultPlan resolve_plan(std::string_view name_or_spec);

}  // namespace dssmr::fault
