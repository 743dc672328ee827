#include "smr/command.h"

#include <algorithm>

#include "smr/app.h"

namespace dssmr::smr {

const char* to_string(CommandType t) {
  switch (t) {
    case CommandType::kAccess:
      return "access";
    case CommandType::kCreate:
      return "create";
    case CommandType::kDelete:
      return "delete";
    case CommandType::kMove:
      return "move";
    case CommandType::kReconfig:
      return "reconfig";
  }
  return "?";
}

const char* to_string(ReplyCode c) {
  switch (c) {
    case ReplyCode::kOk:
      return "ok";
    case ReplyCode::kRetry:
      return "retry";
    case ReplyCode::kNok:
      return "nok";
    case ReplyCode::kRetired:
      return "retired";
    case ReplyCode::kNotInvolved:
      return "not_involved";
  }
  return "?";
}

std::vector<VarId> Command::vars() const {
  std::vector<VarId> all = read_set;
  all.insert(all.end(), write_set.begin(), write_set.end());
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

std::size_t Command::size_bytes() const {
  // 48 header bytes + 8 for the trace id (always carried, so the bandwidth
  // model is identical whether span tracing is enabled or not).
  return 56 + (read_set.size() + write_set.size()) * 8 + arg.size() + move_sources.size() * 4;
}

Command make_move(MsgId id, std::uint64_t trace_id, std::vector<VarId> vars,
                  std::vector<GroupId> sources, GroupId dest) {
  Command move;
  move.type = CommandType::kMove;
  move.id = id;
  move.trace_id = trace_id;
  move.write_set = std::move(vars);
  move.move_sources = std::move(sources);
  move.move_dest = dest;
  return move;
}

Command fuse_move(const Command& access, MsgId id, std::vector<GroupId> sources, GroupId dest) {
  Command fused = access;
  fused.id = id;
  fused.move_sources = std::move(sources);
  fused.move_dest = dest;
  return fused;
}

std::vector<GroupId> move_groups(const Command& move, GroupId oracle) {
  std::vector<GroupId> groups = move.move_sources;
  groups.push_back(move.move_dest);
  groups.push_back(oracle);
  std::sort(groups.begin(), groups.end());
  return groups;
}

std::size_t VarShipMsg::size_bytes() const {
  std::size_t n = 32;
  for (const auto& [v, val] : vars) {
    (void)v;
    n += 8 + (val != nullptr ? val->size_bytes() : 0);
  }
  return n;
}

}  // namespace dssmr::smr
