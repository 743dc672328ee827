// Scanner shared by the fault and scale plan DSLs (internal to src/fault).
//
// Both languages are semicolon-separated events of the form
// `<action>[:<args>]@<time>`, with times like `120ms`, `50us` or `2s`. The
// event parsers report a problem with fail(why); parse() adds the plan kind
// and text, so every error reads `bad <kind> plan "<spec>": <why>`.
#pragma once

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace dssmr::fault::dsl {

/// A malformed plan, before parse() adds the plan's context.
struct ParseError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] inline void fail(const std::string& why) { throw ParseError(why); }

inline std::vector<std::string_view> split(std::string_view s, char sep) {
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

inline std::string_view trim(std::string_view s) {
  while (!s.empty() && s.front() == ' ') s.remove_prefix(1);
  while (!s.empty() && s.back() == ' ') s.remove_suffix(1);
  return s;
}

inline bool parse_u32(std::string_view s, std::uint32_t& out) {
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
inline Duration parse_time(std::string_view s) {
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

/// One event's text split at its `@` and first `:`.
struct EventText {
  std::string_view action;
  std::string_view args;
  std::string_view time;
};

inline EventText split_event(std::string_view s) {
  const std::size_t at_pos = s.rfind('@');
  if (at_pos == std::string_view::npos) {
    fail("event \"" + std::string(s) + "\" is missing @time");
  }
  const std::string_view head = trim(s.substr(0, at_pos));
  EventText e{.action = head, .args = {}, .time = trim(s.substr(at_pos + 1))};
  if (const std::size_t colon = head.find(':'); colon != std::string_view::npos) {
    e.action = head.substr(0, colon);
    e.args = trim(head.substr(colon + 1));
  }
  return e;
}

/// Parses `spec` into a Plan {name, spec, events} with `parse_event`, and
/// orders the events by trigger time (ties in written order). Throws
/// std::invalid_argument naming the plan `kind`.
template <class Plan, class ParseEvent>
Plan parse(std::string_view kind, std::string_view spec, ParseEvent parse_event) {
  try {
    Plan plan;
    plan.name = "custom";
    plan.spec = std::string(trim(spec));
    if (plan.spec.empty()) fail("empty plan");
    for (std::string_view ev : split(plan.spec, ';')) {
      ev = trim(ev);
      if (ev.empty()) continue;
      plan.events.push_back(parse_event(ev));
    }
    if (plan.events.empty()) fail("plan has no events");
    std::stable_sort(plan.events.begin(), plan.events.end(),
                     [](const auto& a, const auto& b) { return a.at < b.at; });
    return plan;
  } catch (const ParseError& e) {
    throw std::invalid_argument("bad " + std::string(kind) + " plan \"" + std::string(spec) +
                                "\": " + e.what());
  }
}

/// Looks `name_or_spec` up among the `shipped` plans first; otherwise parses
/// it as inline DSL.
template <class Shipped, class Parse>
auto resolve(const std::vector<Shipped>& shipped, std::string_view name_or_spec, Parse parse) {
  for (const Shipped& p : shipped) {
    if (name_or_spec == p.name) {
      auto plan = parse(p.spec);
      plan.name = std::string(p.name);
      return plan;
    }
  }
  return parse(name_or_spec);
}

}  // namespace dssmr::fault::dsl
