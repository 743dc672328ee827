#include "fault/fault_plan.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

namespace dssmr::fault {
namespace {

/// A malformed plan, before parse_plan() adds the plan's text, so every
/// error reads `bad fault plan "<spec>": <why>`.
struct ParseError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void fail(const std::string& why) { throw ParseError(why); }

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  while (true) {
    const std::size_t pos = s.find(sep);
    if (pos == std::string_view::npos) {
      out.push_back(s);
      return out;
    }
    out.push_back(s.substr(0, pos));
    s.remove_prefix(pos + 1);
  }
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && s.front() == ' ') s.remove_prefix(1);
  while (!s.empty() && s.back() == ' ') s.remove_suffix(1);
  return s;
}

bool parse_u32(std::string_view s, std::uint32_t& out) {
  if (s.empty()) return false;
  std::uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
    if (v > 0xffffffffULL) return false;
  }
  out = static_cast<std::uint32_t>(v);
  return true;
}

/// `120ms`, `50us`, `2s` -> microseconds.
Duration parse_time(std::string_view s) {
  s = trim(s);
  std::size_t digits = 0;
  while (digits < s.size() && s[digits] >= '0' && s[digits] <= '9') ++digits;
  if (digits == 0) fail("expected a time like 120ms, got \"" + std::string(s) + "\"");
  std::uint32_t n = 0;
  if (!parse_u32(s.substr(0, digits), n)) fail("time out of range: " + std::string(s));
  const std::string_view unit = s.substr(digits);
  if (unit == "us") return usec(n);
  if (unit == "ms") return msec(n);
  if (unit == "s") return sec(n);
  fail("unknown time unit \"" + std::string(unit) + "\" (want us/ms/s)");
}

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
  for (std::string_view part : split(s, '+')) {
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

/// One event, `<action>[:<args>]@<time>`.
FaultEvent parse_event(std::string_view s) {
  const std::size_t at_pos = s.rfind('@');
  if (at_pos == std::string_view::npos) fail("event \"" + std::string(s) + "\" is missing @time");
  std::string_view action = trim(s.substr(0, at_pos));
  std::string_view args;
  std::string_view time_part = trim(s.substr(at_pos + 1));
  if (const std::size_t colon = action.find(':'); colon != std::string_view::npos) {
    args = trim(action.substr(colon + 1));
    action = action.substr(0, colon);
  }
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
  } else if (action == "add-partition") {
    e.action = FaultAction::kAddPartition;
    if (!args.empty()) fail("add-partition takes no argument");
  } else if (action == "remove-partition") {
    e.action = FaultAction::kRemovePartition;
    e.target.kind = FaultTarget::Kind::kPartition;
    if (!parse_u32(args, e.target.partition)) {
      fail("remove-partition needs a partition index, got \"" + std::string(args) + "\"");
    }
  } else {
    fail("unknown action \"" + std::string(action) + "\"");
  }
  e.at = parse_time(time_part);
  return e;
}

}  // namespace

bool FaultPlan::elastic() const {
  return std::any_of(events.begin(), events.end(),
                     [](const FaultEvent& e) { return is_scale(e.action); });
}

FaultPlan parse_plan(std::string_view spec) {
  try {
    FaultPlan plan;
    plan.name = "custom";
    plan.spec = std::string(trim(spec));
    if (plan.spec.empty()) fail("empty plan");
    for (std::string_view ev : split(plan.spec, ';')) {
      ev = trim(ev);
      if (!ev.empty()) plan.events.push_back(parse_event(ev));
    }
    if (plan.events.empty()) fail("plan has no events");
    // Trigger-time order, ties in written order.
    std::stable_sort(plan.events.begin(), plan.events.end(),
                     [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
    return plan;
  } catch (const ParseError& e) {
    throw std::invalid_argument("bad fault plan \"" + std::string(spec) + "\": " + e.what());
  }
}

const std::vector<ShippedPlan>& shipped_plans() {
  static const std::vector<ShippedPlan> kPlans = {
      {"leader-kill-recover", "kill-leader:p0@120ms;recover:last@700ms",
       "crash partition 0's current leader, restart it at 700ms (3 replicas re-elect "
       "meanwhile; 2 lose their quorum and stall until the restart)"},
      {"oracle-member-crash", "crash:oracle1@120ms;recover:oracle1@700ms",
       "crash a non-leader oracle replica, then bring it back"},
      {"oracle-leader-kill", "kill-leader:oracle@120ms;recover:last@700ms",
       "crash the oracle leader, restart it at 700ms (consults stall until 3 replicas "
       "re-elect; 2 lose their quorum and stall until the restart)"},
      {"partition-heal", "cut:p0|p1@150ms;heal@500ms",
       "full network partition between partition 0 and partition 1, then heal"},
      {"asym-partition", "cut:p0r0>p0@150ms;heal@500ms",
       "asymmetric fault: p0r0 hears its peers but they never hear it"},
      {"drop-burst", "drop:0.05@100ms+300ms",
       "5% random message loss for 300ms, then restore"},
      {"scale-out", "add-partition@150ms",
       "boot one fresh partition mid-run; the oracle rebalances onto it"},
      {"scale-in", "remove-partition:1@150ms",
       "drain partition 1 onto the rest, wait for the barrier, retire it"},
      {"scale-bounce", "add-partition@100ms;remove-partition:2@400ms",
       "add a partition, then drain and retire it again (2-partition deployments: "
       "the added one is index 2)"},
  };
  return kPlans;
}

FaultPlan resolve_plan(std::string_view name_or_spec) {
  for (const ShippedPlan& p : shipped_plans()) {
    if (name_or_spec == p.name) {
      FaultPlan plan = parse_plan(p.spec);
      plan.name = std::string(p.name);
      return plan;
    }
  }
  return parse_plan(name_or_spec);
}

}  // namespace dssmr::fault
