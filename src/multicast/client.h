// Client-side multicast endpoint.
//
// Clients are not members of any group: they submit StampEntries to the
// destination groups' members (the current leader sequences them, the
// followers hold them for a future leader) and
// receive replies as direct messages. They can also send a group's members
// an unordered message (send_to_group), which bypasses the group's log.
// Re-invoking amcast_with_id with the same MsgId is safe — duplicate stamps
// deduplicate at the leaders and at the amcast apply layer — which is
// exactly what the DS-SMR client proxy's retry loop relies on.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "consensus/paxos.h"
#include "multicast/directory.h"
#include "multicast/messages.h"
#include "net/network.h"

namespace dssmr::multicast {

class ClientNode : public net::Actor {
 public:
  ClientNode() = default;
  ~ClientNode() override = default;

  /// Two-phase init (after network registration).
  void init_client_node(net::Network& network, const Directory& directory);

  void on_message(ProcessId from, const net::MessagePtr& m) final;

  /// Allocates a fresh message id for a logical operation.
  MsgId fresh_id();

  /// Atomically multicasts `payload` to `dests` under the given id.
  void amcast_with_id(MsgId id, std::vector<GroupId> dests, net::MessagePtr payload);

  /// Convenience: fresh id + amcast; returns the id.
  MsgId amcast(std::vector<GroupId> dests, net::MessagePtr payload);

  /// Sends `payload` point to point to every member of group `g`, outside
  /// the group's log.
  void send_to_group(GroupId g, net::MessagePtr payload);

  net::Network& network() { return *network_; }
  const Directory& directory() const { return *directory_; }

 protected:
  /// Replies and any other direct traffic land here.
  virtual void on_reply(ProcessId from, const net::MessagePtr& m) = 0;

 private:
  net::Network* network_ = nullptr;
  const Directory* directory_ = nullptr;
  std::uint64_t next_msg_seq_ = 0;
};

}  // namespace dssmr::multicast
