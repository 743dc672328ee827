#include "multicast/client.h"

#include <utility>

#include "common/assert.h"

namespace dssmr::multicast {

void ClientNode::init_client_node(net::Network& network, const Directory& directory) {
  DSSMR_ASSERT_MSG(pid() != kNoProcess, "register the client with the network first");
  network_ = &network;
  directory_ = &directory;
}

void ClientNode::on_message(ProcessId from, const net::MessagePtr& m) {
  on_reply(from, m);
}

MsgId ClientNode::fresh_id() {
  return MsgId{(static_cast<std::uint64_t>(pid().value) << 32) | next_msg_seq_++};
}

void ClientNode::amcast_with_id(MsgId id, std::vector<GroupId> dests, net::MessagePtr payload,
                                SubmitBatcher::FlushFn on_flush) {
  normalize_dests(dests);
  AmcastMessage msg{id, pid(), dests, std::move(payload)};
  if (batcher_ != nullptr) {
    batcher_->amcast(msg, std::move(on_flush));
    return;
  }
  auto stamp = net::make_msg<StampEntry>(std::move(msg));
  for (GroupId g : dests) {
    auto wrapped = net::make_msg<SubmitToLog>(g, stamp_log_entry(id, g, stamp));
    for (ProcessId p : directory_->members(g)) network_->send(pid(), p, wrapped);
  }
}

MsgId ClientNode::amcast(std::vector<GroupId> dests, net::MessagePtr payload) {
  const MsgId id = fresh_id();
  amcast_with_id(id, std::move(dests), std::move(payload));
  return id;
}

void ClientNode::send_to_group(GroupId g, net::MessagePtr payload) {
  if (batcher_ != nullptr) {
    batcher_->direct(g, pid(), std::move(payload));
    return;
  }
  network_->multisend(pid(), directory_->members(g), payload);
}

}  // namespace dssmr::multicast
