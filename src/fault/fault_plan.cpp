#include "fault/fault_plan.h"

#include <cstdlib>

#include "fault/plan_dsl.h"

namespace dssmr::fault {
namespace {

using dsl::fail;
using dsl::parse_time;
using dsl::parse_u32;
using dsl::trim;

double parse_prob(std::string_view s) {
  const std::string str(trim(s));
  char* end = nullptr;
  const double v = std::strtod(str.c_str(), &end);
  if (end != str.c_str() + str.size() || str.empty()) {
    fail("expected a probability, got \"" + str + "\"");
  }
  return v;  // Network::set_drop_probability clamps to [0,1]
}

/// p0r1 / oracle2 / p0 / oracle / last.
FaultTarget parse_target(std::string_view s) {
  s = trim(s);
  FaultTarget t;
  if (s == "last") {
    t.kind = FaultTarget::Kind::kLastVictim;
    return t;
  }
  if (s.starts_with("oracle")) {
    const std::string_view rest = s.substr(6);
    if (rest.empty()) {
      t.kind = FaultTarget::Kind::kOracle;
      return t;
    }
    if (!parse_u32(rest, t.replica)) fail("bad oracle replica: " + std::string(s));
    t.kind = FaultTarget::Kind::kOracleReplica;
    return t;
  }
  if (s.starts_with("p")) {
    const std::size_t r = s.find('r', 1);
    if (r == std::string_view::npos) {
      if (!parse_u32(s.substr(1), t.partition)) fail("bad partition: " + std::string(s));
      t.kind = FaultTarget::Kind::kPartition;
      return t;
    }
    if (!parse_u32(s.substr(1, r - 1), t.partition) ||
        !parse_u32(s.substr(r + 1), t.replica)) {
      fail("bad replica: " + std::string(s));
    }
    t.kind = FaultTarget::Kind::kReplica;
    return t;
  }
  fail("unknown target \"" + std::string(s) + "\" (want p<i>r<j>, p<i>, oracle<r>, oracle, last)");
}

std::vector<FaultTarget> parse_set(std::string_view s) {
  std::vector<FaultTarget> out;
  for (std::string_view part : dsl::split(s, '+')) {
    FaultTarget t = parse_target(part);
    if (t.kind == FaultTarget::Kind::kLastVictim) fail("`last` is not valid in a cut set");
    out.push_back(t);
  }
  return out;
}

bool is_process(const FaultTarget& t) {
  return t.kind == FaultTarget::Kind::kReplica ||
         t.kind == FaultTarget::Kind::kOracleReplica ||
         t.kind == FaultTarget::Kind::kLastVictim;
}

FaultEvent parse_event(std::string_view s) {
  auto [action, args, time_part] = dsl::split_event(s);
  FaultEvent e;
  if (action == "crash" || action == "recover") {
    e.action = action == "crash" ? FaultAction::kCrash : FaultAction::kRecover;
    e.target = parse_target(args);
    if (!is_process(e.target)) {
      fail(std::string(action) + " needs a process (p<i>r<j> or oracle<r>), got \"" +
           std::string(args) + "\"");
    }
    if (e.action == FaultAction::kCrash && e.target.kind == FaultTarget::Kind::kLastVictim) {
      fail("crash:last is meaningless (it is already down)");
    }
  } else if (action == "kill-leader") {
    e.action = FaultAction::kKillLeader;
    e.target = parse_target(args);
    if (e.target.kind != FaultTarget::Kind::kPartition &&
        e.target.kind != FaultTarget::Kind::kOracle) {
      fail("kill-leader needs a group (p<i> or oracle), got \"" + std::string(args) + "\"");
    }
  } else if (action == "cut" || action == "partition") {
    e.action = FaultAction::kCut;
    std::size_t sep = args.find('>');
    e.directed = sep != std::string_view::npos;
    if (!e.directed) sep = args.find('|');
    if (sep == std::string_view::npos) {
      fail("cut needs two sides: cut:A|B (or A>B), got \"" + std::string(args) + "\"");
    }
    e.side_a = parse_set(args.substr(0, sep));
    e.side_b = parse_set(args.substr(sep + 1));
  } else if (action == "heal") {
    e.action = FaultAction::kHeal;
    if (!args.empty()) fail("heal takes no argument");
  } else if (action == "drop") {
    e.action = FaultAction::kDropBurst;
    const std::size_t plus = time_part.rfind('+');
    if (plus == std::string_view::npos) {
      fail("drop needs a duration: drop:<p>@<time>+<dur>, got \"" + std::string(s) + "\"");
    }
    e.drop_probability = parse_prob(args);
    e.duration = parse_time(time_part.substr(plus + 1));
    time_part = trim(time_part.substr(0, plus));
    if (e.duration <= 0) fail("drop burst duration must be positive");
  } else {
    fail("unknown action \"" + std::string(action) + "\"");
  }
  e.at = parse_time(time_part);
  return e;
}

}  // namespace

FaultPlan parse_plan(std::string_view spec) {
  return dsl::parse<FaultPlan>("fault", spec, parse_event);
}

const std::vector<ShippedPlan>& shipped_plans() {
  static const std::vector<ShippedPlan> kPlans = {
      {"leader-kill-recover", "kill-leader:p0@120ms;recover:last@700ms",
       "crash partition 0's current leader, restart it after the group re-elects"},
      {"oracle-member-crash", "crash:oracle1@120ms;recover:oracle1@700ms",
       "crash a non-leader oracle replica, then bring it back"},
      {"oracle-leader-kill", "kill-leader:oracle@120ms;recover:last@700ms",
       "crash the oracle leader (consults stall until re-election), restart it"},
      {"partition-heal", "cut:p0|p1@150ms;heal@500ms",
       "full network partition between partition 0 and partition 1, then heal"},
      {"asym-partition", "cut:p0r0>p0@150ms;heal@500ms",
       "asymmetric fault: p0r0 hears its peers but they never hear it"},
      {"drop-burst", "drop:0.05@100ms+300ms",
       "5% random message loss for 300ms, then restore"},
  };
  return kPlans;
}

FaultPlan resolve_plan(std::string_view name_or_spec) {
  return dsl::resolve(shipped_plans(), name_or_spec, parse_plan);
}

}  // namespace dssmr::fault
