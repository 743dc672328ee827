// Reference application: a tiny replicated key-value / counter store.
//
// Used by the quickstart example and by the protocol test-suite; it exercises
// every interesting command shape (single-variable reads/writes, multi-
// variable read-modify-write) with trivially checkable semantics.
#pragma once

#include <charconv>
#include <memory>
#include <string>

#include "smr/app.h"
#include "smr/command.h"

namespace dssmr::kv {

enum Op : std::uint32_t {
  kGet = 1,   // read_set = {v}; reply carries v's contents
  kSet = 2,   // write_set = {v}; arg = new string payload
  kAdd = 3,   // write_set = {v}; arg = signed delta applied to the counter
  kSumTo = 4, // read_set = sources, write_set = {dst}: dst.num = sum(sources)
};

struct KvValue final : smr::VarValue {
  std::int64_t num = 0;
  std::string data;

  KvValue() = default;
  KvValue(std::int64_t n, std::string d) : num(n), data(std::move(d)) {}

  std::unique_ptr<smr::VarValue> clone() const override {
    return std::make_unique<KvValue>(num, data);
  }
  std::size_t size_bytes() const override { return 24 + data.size(); }
};

struct KvReply final : net::Message {
  std::int64_t num = 0;
  std::string data;
  KvReply(std::int64_t n, std::string d) : num(n), data(std::move(d)) {}
  const char* type_name() const override { return "kv.reply"; }
  std::size_t size_bytes() const override { return 24 + data.size(); }
};

class KvApp final : public smr::AppStateMachine {
 public:
  net::MessagePtr execute(const smr::Command& cmd, smr::ExecutionView& view) override {
    switch (cmd.op) {
      case kGet: {
        const auto* v = view.get_as<KvValue>(cmd.read_set.at(0));
        if (v == nullptr) return net::make_msg<KvReply>(0, "<missing>");
        return net::make_msg<KvReply>(v->num, v->data);
      }
      case kSet: {
        for (VarId id : cmd.write_set) {
          if (auto* v = view.get_as<KvValue>(id); v != nullptr) v->data = cmd.arg;
        }
        return net::make_msg<KvReply>(0, cmd.arg);
      }
      case kAdd: {
        std::int64_t delta = 0;
        std::from_chars(cmd.arg.data(), cmd.arg.data() + cmd.arg.size(), delta);
        std::int64_t result = 0;
        for (VarId id : cmd.write_set) {
          if (auto* v = view.get_as<KvValue>(id); v != nullptr) {
            v->num += delta;
            result = v->num;
          }
        }
        return net::make_msg<KvReply>(result, "");
      }
      case kSumTo: {
        std::int64_t sum = 0;
        for (VarId id : cmd.read_set) {
          if (const auto* v = view.get_as<KvValue>(id); v != nullptr) sum += v->num;
        }
        if (auto* dst = view.get_as<KvValue>(cmd.write_set.at(0)); dst != nullptr) {
          dst->num = sum;
        }
        return net::make_msg<KvReply>(sum, "");
      }
      default:
        return net::make_msg<KvReply>(-1, "<bad-op>");
    }
  }

  std::unique_ptr<smr::VarValue> make_default(VarId v) override {
    (void)v;
    return std::make_unique<KvValue>();
  }

  Duration service_time(const smr::Command& cmd) const override {
    return usec(10) + usec(1) * static_cast<Duration>(cmd.vars().size());
  }
};

inline smr::AppFactory kv_app_factory() {
  return [] { return std::make_unique<KvApp>(); };
}

}  // namespace dssmr::kv
