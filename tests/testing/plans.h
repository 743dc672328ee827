// Shipped nemesis plans as gtest parameters.
#pragma once

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/fault_plan.h"

namespace dssmr::testing {

/// Names of the shipped plans that add or retire a partition (`elastic`), or
/// of the ones that do not.
inline std::vector<std::string> shipped_plan_names(bool elastic) {
  std::vector<std::string> names;
  for (const fault::ShippedPlan& p : fault::shipped_plans()) {
    if (fault::resolve_plan(p.name).elastic() == elastic) names.emplace_back(p.name);
  }
  return names;
}

/// Test-name suffix for a plan parameter: `leader-kill-recover` ->
/// `leader_kill_recover` (gtest names allow no '-').
inline std::string plan_param_name(const ::testing::TestParamInfo<std::string>& info) {
  std::string n = info.param;
  for (char& c : n) {
    if (c == '-') c = '_';
  }
  return n;
}

}  // namespace dssmr::testing
