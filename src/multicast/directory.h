// Static deployment directory: which processes form which multicast group.
//
// Groups are the unit of atomic multicast addressing: one group per state
// partition plus one group for the partitioning oracle. The directory is
// immutable after deployment construction and shared (by reference) across
// every node and client. Membership is stored as one dense ProcessId array
// with per-group offsets — members() is on the fan-out path of every send,
// and a flat span beats a vector-of-vectors' double indirection there.
#pragma once

#include <span>
#include <vector>

#include "common/assert.h"
#include "common/types.h"

namespace dssmr::multicast {

class Directory {
 public:
  /// Appends a group; returns its id. Ids are dense, starting at 0.
  GroupId add_group(std::vector<ProcessId> members) {
    DSSMR_ASSERT_MSG(!members.empty(), "empty multicast group");
    const GroupId gid{static_cast<std::uint32_t>(offsets_.size() - 1)};
    members_.insert(members_.end(), members.begin(), members.end());
    offsets_.push_back(static_cast<std::uint32_t>(members_.size()));
    return gid;
  }

  std::span<const ProcessId> members(GroupId g) const {
    DSSMR_ASSERT(g.value + 1 < offsets_.size());
    return {members_.data() + offsets_[g.value],
            offsets_[g.value + 1] - offsets_[g.value]};
  }

  std::size_t group_count() const { return offsets_.size() - 1; }

 private:
  std::vector<ProcessId> members_;       // all groups' members, concatenated
  std::vector<std::uint32_t> offsets_{0};  // group g: [offsets_[g], offsets_[g+1])
};

}  // namespace dssmr::multicast
