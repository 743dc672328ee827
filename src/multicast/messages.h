// Wire and log-entry types of the multicast layer.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"
#include "consensus/paxos.h"
#include "net/message.h"

namespace dssmr::multicast {

/// An atomically multicast application message. `dests` is sorted and
/// duplicate-free; `sender` lets the executing servers address their reply.
struct AmcastMessage {
  MsgId id;
  ProcessId sender = kNoProcess;
  std::vector<GroupId> dests;
  net::MessagePtr payload;

  bool single_group() const { return dests.size() == 1; }
  std::size_t size_bytes() const {
    return 48 + dests.size() * 4 + (payload != nullptr ? payload->size_bytes() : 0);
  }
};

inline void normalize_dests(std::vector<GroupId>& dests) {
  std::sort(dests.begin(), dests.end());
  dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
}

/// Log entry: "message m was addressed to this group" — processing it
/// assigns the group's local timestamp (Skeen step 1).
struct StampEntry final : net::Message {
  AmcastMessage msg;
  explicit StampEntry(AmcastMessage m) : msg(std::move(m)) {}
  const char* type_name() const override { return "amcast.stamp"; }
  std::size_t size_bytes() const override { return msg.size_bytes(); }
};

/// Log entry: "group `from` assigned timestamp `ts` to message `mid`"
/// (Skeen step 2, routed through the receiving group's log so that every
/// replica of the group observes timestamps in the same order).
struct TsEntry final : net::Message {
  MsgId mid;
  GroupId from;
  std::uint64_t ts;
  TsEntry(MsgId m, GroupId f, std::uint64_t t) : mid(m), from(f), ts(t) {}
  const char* type_name() const override { return "amcast.ts"; }
  std::size_t size_bytes() const override { return 32; }
};

/// Request that a group sequence `entry` into its log. Sent to every group
/// member: the current Paxos leader proposes it, and each follower holds it
/// until a decide carries it, so a leader elected after a crash proposes it
/// instead (PaxosCore::submit). Duplicated submissions collapse via the
/// leader's entry-id dedup, and a decided duplicate is dropped at delivery.
struct SubmitToLog final : net::Message {
  GroupId gid;
  consensus::LogEntry entry;
  SubmitToLog(GroupId g, consensus::LogEntry e) : gid(g), entry(std::move(e)) {}
  const char* type_name() const override { return "amcast.submit"; }
  std::size_t size_bytes() const override {
    return 32 + (entry.payload != nullptr ? entry.payload->size_bytes() : 0);
  }
};

/// Reliable-multicast envelope.
struct RmMsg final : net::Message {
  MsgId id;
  ProcessId origin;
  std::vector<GroupId> dests;
  net::MessagePtr payload;
  bool relayed;  // true once forwarded by a receiver (stops re-relaying)
  RmMsg(MsgId i, ProcessId o, std::vector<GroupId> d, net::MessagePtr p, bool r)
      : id(i), origin(o), dests(std::move(d)), payload(std::move(p)), relayed(r) {}
  const char* type_name() const override { return "rmcast.msg"; }
  std::size_t size_bytes() const override {
    return 48 + dests.size() * 4 + (payload != nullptr ? payload->size_bytes() : 0);
  }
};

/// Mixes a message id and a group into a deterministic log-entry id, so that
/// retried submissions of the same logical entry deduplicate at the leader.
inline MsgId derive_entry_id(MsgId base, GroupId g, std::uint64_t salt) {
  std::uint64_t x = base.value ^
                    (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(g.value) + 1)) ^
                    (salt * 0xbf58476d1ce4e5b9ULL);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return MsgId{x ^ (x >> 31)};
}

/// Salt of stamp entry ids: every submission of one multicast to one group
/// (the sender's, a leader's re-dissemination) derives the same
/// id, so the group leader's dedup collapses them.
inline constexpr std::uint64_t kStampSalt = 0x57a3;

/// The log entry that submits `stamp`, the StampEntry of message `id`, to
/// group `g`.
inline consensus::LogEntry stamp_log_entry(MsgId id, GroupId g, net::MessagePtr stamp) {
  return consensus::LogEntry{derive_entry_id(id, g, kStampSalt), std::move(stamp)};
}

}  // namespace dssmr::multicast
