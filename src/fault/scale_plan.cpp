#include "fault/scale_plan.h"

#include "fault/plan_dsl.h"

namespace dssmr::fault {
namespace {

ScaleEvent parse_event(std::string_view s) {
  const auto [action, args, time] = dsl::split_event(s);
  ScaleEvent e;
  if (action == "add-partition") {
    e.action = ScaleAction::kAddPartition;
    if (!args.empty()) dsl::fail("add-partition takes no argument");
  } else if (action == "remove-partition") {
    e.action = ScaleAction::kRemovePartition;
    if (!dsl::parse_u32(args, e.partition)) {
      dsl::fail("remove-partition needs a partition index, got \"" + std::string(args) + "\"");
    }
  } else {
    dsl::fail("unknown action \"" + std::string(action) + "\"");
  }
  e.at = dsl::parse_time(time);
  return e;
}

}  // namespace

ScalePlan parse_scale_plan(std::string_view spec) {
  return dsl::parse<ScalePlan>("scale", spec, parse_event);
}

const std::vector<ShippedScalePlan>& shipped_scale_plans() {
  static const std::vector<ShippedScalePlan> kPlans = {
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

ScalePlan resolve_scale_plan(std::string_view name_or_spec) {
  return dsl::resolve(shipped_scale_plans(), name_or_spec, parse_scale_plan);
}

}  // namespace dssmr::fault
