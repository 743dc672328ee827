#include "consensus/paxos.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"

namespace dssmr::consensus {
namespace {

/// A leader heartbeats every kHeartbeatInterval; a follower that hears none
/// for kElectionTimeout plus a random share of it stands for election.
constexpr Duration kHeartbeatInterval = msec(20);
constexpr Duration kElectionTimeout = msec(120);
/// A leader re-sends its undecided proposals every kResendInterval.
constexpr Duration kResendInterval = msec(40);

std::size_t batch_bytes(const Batch& b) {
  std::size_t n = 16;
  for (const auto& e : b) n += 16 + (e.payload != nullptr ? e.payload->size_bytes() : 0);
  return n;
}

/// A decided batch as every replica keeps it for the retention window: a
/// batch filled by push_back can hold up to twice its entries' room.
SharedBatch share(Batch batch) {
  batch.shrink_to_fit();
  return std::make_shared<const Batch>(std::move(batch));
}

}  // namespace

std::size_t P1b::size_bytes() const {
  std::size_t n = 64;
  for (const auto& [slot, entry] : accepted) {
    (void)slot;
    n += batch_bytes(entry.second);
  }
  return n;
}

std::size_t P2a::size_bytes() const { return 64 + batch_bytes(batch); }
std::size_t CommitMsg::size_bytes() const { return 64 + batch_bytes(*batch); }

PaxosCore::PaxosCore(sim::Engine& engine, GroupId gid, std::vector<ProcessId> members,
                     ProcessId self, PaxosConfig config, Callbacks callbacks,
                     std::uint64_t seed)
    : engine_(engine),
      gid_(gid),
      members_(std::move(members)),
      self_(self),
      cfg_(config),
      cb_(std::move(callbacks)),
      rng_(seed) {
  DSSMR_ASSERT_MSG(!members_.empty(), "group needs at least one member");
  DSSMR_ASSERT(cb_.send != nullptr && cb_.on_decide != nullptr);
  self_index_ = index_of(self_);
}

std::uint32_t PaxosCore::index_of(ProcessId p) const {
  for (std::uint32_t i = 0; i < members_.size(); ++i) {
    if (members_[i] == p) return i;
  }
  DSSMR_FAIL("process is not a member of this group");
}

void PaxosCore::start() {
  if (self_index_ == 0) {
    // Bootstrap: the first member stands for election right away.
    engine_.schedule(usec(1), [this] {
      if (!halted_ && role_ == Role::Follower && max_seen_ballot_ == 0) start_election();
    });
  }
  arm_election_timer();
}

void PaxosCore::halt() {
  halted_ = true;
  engine_.cancel(election_timer_);
  engine_.cancel(heartbeat_timer_);
  engine_.cancel(resend_timer_);
  engine_.cancel(batch_timer_);
  election_timer_ = heartbeat_timer_ = resend_timer_ = batch_timer_ = 0;
  clear_held();
}

void PaxosCore::restart() {
  if (!halted_) return;
  halted_ = false;
  role_ = Role::Follower;
  ballot_ = 0;
  p1b_granted_.clear();
  p1b_accepted_.clear();
  proposals_.clear();
  pending_.clear();
  submitted_ids_.clear();
  // The election timer doubles as the catch-up trigger: the current leader's
  // next heartbeat arrives well before it fires and carries a committed slot
  // ahead of ours, so maybe_request_catchup() pulls the missed log tail.
  arm_election_timer();
}

ProcessId PaxosCore::leader_hint() const {
  if (role_ == Role::Leader) return self_;
  if (max_seen_ballot_ == 0) return members_[0];
  return members_[ballot_owner_index(max_seen_ballot_) % members_.size()];
}

void PaxosCore::broadcast(const net::MessagePtr& m) {
  for (ProcessId p : members_) {
    if (p == self_) continue;
    cb_.send(p, m);
  }
}

// ---- timers ----------------------------------------------------------------

void PaxosCore::arm_election_timer() {
  if (halted_) return;
  engine_.cancel(election_timer_);
  const Duration t = kElectionTimeout + rng_.range(0, kElectionTimeout);
  election_timer_ = engine_.schedule(t, [this] {
    election_timer_ = 0;
    if (halted_ || role_ == Role::Leader) return;
    start_election();
  });
}

void PaxosCore::arm_heartbeat_timer() {
  if (halted_ || role_ != Role::Leader) return;
  engine_.cancel(heartbeat_timer_);
  heartbeat_timer_ = engine_.schedule(kHeartbeatInterval, [this] {
    heartbeat_timer_ = 0;
    if (halted_ || role_ != Role::Leader) return;
    broadcast(net::make_msg<HeartbeatMsg>(gid_, ballot_, next_deliver_ - 1));
    arm_heartbeat_timer();
  });
}

void PaxosCore::arm_resend_timer() {
  if (halted_ || role_ != Role::Leader) return;
  engine_.cancel(resend_timer_);
  resend_timer_ = engine_.schedule(kResendInterval, [this] {
    resend_timer_ = 0;
    if (halted_ || role_ != Role::Leader) return;
    for (const auto& [slot, prop] : proposals_) {
      broadcast(net::make_msg<P2a>(gid_, ballot_, slot, prop.batch));
    }
    arm_resend_timer();
  });
}

void PaxosCore::arm_batch_timer() {
  if (halted_ || batch_timer_ != 0) return;
  // With nothing in flight there is nothing to batch behind: close the batch
  // at the end of this instant, so a same-instant burst still shares a slot.
  const Duration delay = proposals_.empty() ? Duration{0} : cfg_.batch_delay;
  batch_timer_ = engine_.schedule(delay, [this] {
    batch_timer_ = 0;
    if (!halted_ && role_ == Role::Leader) flush_pending();
  });
}

// ---- election --------------------------------------------------------------

void PaxosCore::start_election() {
  role_ = Role::Candidate;
  ballot_ = make_ballot(ballot_round(max_seen_ballot_) + 1, self_index_);
  max_seen_ballot_ = ballot_;
  p1b_granted_.clear();
  p1b_accepted_.clear();

  // Grant own promise.
  if (ballot_ > promised_) promised_ = ballot_;
  p1b_granted_.insert(self_index_);
  for (const auto& [slot, acc] : accepted_) {
    if (slot >= next_deliver_) p1b_accepted_[slot] = acc;
  }
  // Decided-but-not-everywhere slots are also "accepted" by us.
  for (Slot s = std::max(next_deliver_, decided_base_); s < decided_end(); ++s) {
    if (const Batch* batch = decided_at(s)) p1b_accepted_[s] = {promised_, *batch};
  }

  broadcast(net::make_msg<P1a>(gid_, ballot_, next_deliver_ - 1));
  arm_election_timer();  // retry with a higher round if this attempt stalls
  if (p1b_granted_.size() >= majority()) become_leader();
}

void PaxosCore::become_leader() {
  role_ = Role::Leader;
  proposals_.clear();

  Slot max_slot = next_deliver_ - 1;
  for (const auto& [slot, acc] : p1b_accepted_) max_slot = std::max(max_slot, slot);
  next_slot_ = std::max(next_slot_, max_slot + 1);

  // Re-propose every potentially-chosen value; fill gaps with no-ops so the
  // log stays contiguous.
  for (Slot s = next_deliver_; s <= max_slot; ++s) {
    auto it = p1b_accepted_.find(s);
    propose(s, it != p1b_accepted_.end() ? it->second.second : Batch{});
  }
  // Then what was heading for the old leader: every held entry the recovered
  // slots do not carry, in arrival order (flushed below).
  for (const auto& [slot, acc] : p1b_accepted_) {
    for (const LogEntry& e : acc.second) unhold(e.id);
  }
  for (LogEntry& e : held_) {
    if (e.payload != nullptr && submitted_ids_.insert(e.id.value)) {
      pending_.push_back(std::move(e));
    }
  }
  clear_held();
  p1b_accepted_.clear();

  engine_.cancel(election_timer_);
  election_timer_ = 0;
  arm_heartbeat_timer();
  arm_resend_timer();
  if (cb_.on_leadership) cb_.on_leadership(true);
  if (!pending_.empty()) flush_pending();
}

void PaxosCore::step_down(Ballot seen) {
  max_seen_ballot_ = std::max(max_seen_ballot_, seen);
  if (role_ == Role::Leader && cb_.on_leadership) cb_.on_leadership(false);
  role_ = Role::Follower;
  engine_.cancel(heartbeat_timer_);
  engine_.cancel(resend_timer_);
  heartbeat_timer_ = resend_timer_ = 0;
  arm_election_timer();
}

// ---- submission ------------------------------------------------------------

bool PaxosCore::submit(LogEntry entry) {
  if (halted_) return false;
  if (role_ != Role::Leader) {
    hold(std::move(entry));
    return false;
  }
  if (!submitted_ids_.insert(entry.id.value)) return true;  // duplicate
  pending_.push_back(std::move(entry));
  if (pending_.size() >= cfg_.max_batch) {
    flush_pending();
  } else {
    arm_batch_timer();
  }
  return true;
}

void PaxosCore::hold(LogEntry entry) {
  if (!held_ids_.emplace(entry.id.value, held_base_ + held_.size()).second) return;
  held_.push_back(std::move(entry));
  // unhold() keeps a live entry at the front, so this drops the oldest.
  if (held_.size() > kHeldWindow) unhold(held_.front().id);
}

void PaxosCore::unhold(MsgId id) {
  auto it = held_ids_.find(id.value);
  if (it == held_ids_.end()) return;
  held_[it->second - held_base_].payload = nullptr;
  held_ids_.erase(it);
  while (!held_.empty() && held_.front().payload == nullptr) {
    held_.pop_front();
    ++held_base_;
  }
}

void PaxosCore::clear_held() {
  held_.clear();
  held_ids_.clear();
}

void PaxosCore::flush_pending() {
  if (cfg_.pipeline_depth == 0) {
    // Unbounded: everything pending becomes one slot (original behavior).
    if (pending_.empty()) return;
    propose(next_slot_++, std::exchange(pending_, {}));
    return;
  }
  // Pipelined: propose chunks of up to max_batch while the window has room.
  // Leftover entries stay pending and are re-flushed as decisions land, so
  // under load the per-slot batches grow instead of the slot count.
  while (!pending_.empty() && proposals_.size() < cfg_.pipeline_depth) {
    if (pending_.size() <= cfg_.max_batch) {
      propose(next_slot_++, std::exchange(pending_, {}));
      break;
    }
    Batch chunk(std::make_move_iterator(pending_.begin()),
                std::make_move_iterator(pending_.begin() +
                                        static_cast<std::ptrdiff_t>(cfg_.max_batch)));
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(cfg_.max_batch));
    propose(next_slot_++, std::move(chunk));
  }
  if (!pending_.empty()) arm_batch_timer();
}

void PaxosCore::propose(Slot slot, Batch batch) {
  auto it = proposals_.try_emplace(slot).first;
  it->second.batch = std::move(batch);
  it->second.acks.clear();
  it->second.acks.insert(self_index_);

  // Self-accept (a slot this replica already decided keeps its one copy in
  // decided_; see accepted_).
  if (decided_at(slot) == nullptr) accepted_[slot] = {ballot_, it->second.batch};

  broadcast(net::make_msg<P2a>(gid_, ballot_, slot, it->second.batch));
  if (it->second.acks.size() >= majority()) {
    decide(slot, share(std::move(it->second.batch)),
           /*broadcast_commit=*/true);
  }
}

// ---- message handling ------------------------------------------------------

bool PaxosCore::handle(ProcessId from, const net::MessagePtr& m) {
  if (halted_) return false;
  if (const auto* p1a = net::msg_cast<P1a>(m); p1a != nullptr && p1a->gid == gid_) {
    handle_p1a(from, *p1a);
    return true;
  }
  if (const auto* p1b = net::msg_cast<P1b>(m); p1b != nullptr && p1b->gid == gid_) {
    handle_p1b(from, *p1b);
    return true;
  }
  if (const auto* p2a = net::msg_cast<P2a>(m); p2a != nullptr && p2a->gid == gid_) {
    handle_p2a(from, *p2a);
    return true;
  }
  if (const auto* p2b = net::msg_cast<P2b>(m); p2b != nullptr && p2b->gid == gid_) {
    handle_p2b(from, *p2b);
    return true;
  }
  if (const auto* c = net::msg_cast<CommitMsg>(m); c != nullptr && c->gid == gid_) {
    handle_commit(*c);
    return true;
  }
  if (const auto* hb = net::msg_cast<HeartbeatMsg>(m); hb != nullptr && hb->gid == gid_) {
    handle_heartbeat(from, *hb);
    return true;
  }
  if (const auto* lr = net::msg_cast<LearnReq>(m); lr != nullptr && lr->gid == gid_) {
    handle_learnreq(from, *lr);
    return true;
  }
  return false;
}

void PaxosCore::handle_p1a(ProcessId from, const P1a& m) {
  if (m.ballot > promised_) {
    promised_ = m.ballot;
    if (m.ballot > max_seen_ballot_ || role_ != Role::Follower) step_down(m.ballot);
    max_seen_ballot_ = std::max(max_seen_ballot_, m.ballot);

    std::map<Slot, std::pair<Ballot, Batch>> acc;
    for (const auto& [slot, entry] : accepted_) {
      if (slot > m.committed) acc[slot] = entry;
    }
    for (Slot s = std::max(m.committed + 1, decided_base_); s < decided_end(); ++s) {
      if (const Batch* batch = decided_at(s)) acc[s] = {promised_, *batch};
    }
    cb_.send(from, net::make_msg<P1b>(gid_, m.ballot, true, next_deliver_ - 1, std::move(acc)));
  } else {
    cb_.send(from, net::make_msg<P1b>(gid_, m.ballot, false, next_deliver_ - 1,
                                      std::map<Slot, std::pair<Ballot, Batch>>{}));
  }
  arm_election_timer();
}

void PaxosCore::handle_p1b(ProcessId from, const P1b& m) {
  if (role_ != Role::Candidate || m.ballot != ballot_) return;
  if (!m.granted) {
    // Someone promised a higher ballot; back off and retry later.
    step_down(std::max(max_seen_ballot_, m.ballot));
    return;
  }
  p1b_granted_.insert(index_of(from));
  for (const auto& [slot, entry] : m.accepted) {
    auto it = p1b_accepted_.find(slot);
    if (it == p1b_accepted_.end() || entry.first > it->second.first) {
      p1b_accepted_[slot] = entry;
    }
  }
  if (p1b_granted_.size() >= majority()) become_leader();
}

void PaxosCore::handle_p2a(ProcessId from, const P2a& m) {
  max_seen_ballot_ = std::max(max_seen_ballot_, m.ballot);
  if (m.ballot >= promised_) {
    promised_ = m.ballot;
    leader_heard_at_ = engine_.now();
    if (role_ != Role::Follower && ballot_ != m.ballot) step_down(m.ballot);
    if (m.slot >= next_deliver_ && decided_at(m.slot) == nullptr) {
      accepted_[m.slot] = {m.ballot, m.batch};
    }
    cb_.send(from, net::make_msg<P2b>(gid_, m.ballot, m.slot, true));
    arm_election_timer();
  } else {
    cb_.send(from, net::make_msg<P2b>(gid_, m.ballot, m.slot, false));
  }
}

void PaxosCore::handle_p2b(ProcessId from, const P2b& m) {
  if (role_ != Role::Leader || m.ballot != ballot_) return;
  if (!m.accepted) {
    step_down(std::max(max_seen_ballot_, m.ballot + 1));
    return;
  }
  auto it = proposals_.find(m.slot);
  if (it == proposals_.end()) return;
  it->second.acks.insert(index_of(from));
  if (it->second.acks.size() >= majority()) {
    decide(m.slot, share(std::move(it->second.batch)),
           /*broadcast_commit=*/true);
  }
}

void PaxosCore::handle_commit(const CommitMsg& m) {
  // Commits come from the leader (its decisions and its catch-up answers).
  leader_heard_at_ = engine_.now();
  decide(m.slot, m.batch, /*broadcast_commit=*/false);
}

void PaxosCore::handle_heartbeat(ProcessId from, const HeartbeatMsg& m) {
  max_seen_ballot_ = std::max(max_seen_ballot_, m.ballot);
  if (m.ballot == max_seen_ballot_) leader_heard_at_ = engine_.now();
  if (role_ == Role::Leader && m.ballot > ballot_) step_down(m.ballot);
  if (role_ != Role::Leader) arm_election_timer();
  maybe_request_catchup(m.committed, from);
}

void PaxosCore::handle_learnreq(ProcessId from, const LearnReq& m) {
  for (Slot s = std::max(m.from, decided_base_); s < next_deliver_; ++s) {
    if (const SharedBatch& batch = decided_[s - decided_base_]) {
      cb_.send(from, net::make_msg<CommitMsg>(gid_, s, batch));
    }
  }
}

void PaxosCore::maybe_request_catchup(Slot leader_committed, ProcessId from) {
  if (leader_committed >= next_deliver_) {
    cb_.send(from, net::make_msg<LearnReq>(gid_, next_deliver_));
  }
}

// ---- learning --------------------------------------------------------------

const Batch* PaxosCore::decided_at(Slot slot) const {
  if (slot < decided_base_ || slot >= decided_end()) return nullptr;
  return decided_[slot - decided_base_].get();
}

void PaxosCore::decide(Slot slot, SharedBatch batch, bool broadcast_commit) {
  if (slot < next_deliver_) return;  // already delivered
  // decided_base_ <= next_deliver_ (trim keeps the delivery point), so the
  // slot lands at or above the window's front.
  const std::size_t i = slot - decided_base_;
  if (i >= decided_.size()) decided_.resize(i + 1);
  const bool fresh = decided_[i] == nullptr;
  if (fresh) {
    decided_[i] = std::move(batch);
    if (!held_ids_.empty()) {
      for (const LogEntry& e : *decided_[i]) unhold(e.id);
    }
  }
  accepted_.erase(slot);
  proposals_.erase(slot);
  if (broadcast_commit && fresh) {
    broadcast(net::make_msg<CommitMsg>(gid_, slot, decided_[i]));
  }
  advance_delivery();
  // A decision freed room in the window (depth 0 has no bound); propose the
  // backlog right away instead of leaving it to the batch timer.
  if (role_ == Role::Leader && !pending_.empty() &&
      (cfg_.pipeline_depth == 0 || proposals_.size() < cfg_.pipeline_depth)) {
    flush_pending();
  }
}

void PaxosCore::advance_delivery() {
  while (decided_at(next_deliver_) != nullptr) {
    const Slot slot = next_deliver_;
    const SharedBatch batch = decided_[slot - decided_base_];
    ++next_deliver_;
    cb_.on_decide(slot, *batch);
  }
  trim();
}

void PaxosCore::trim() {
  if (next_deliver_ <= cfg_.retain_window) return;
  const Slot low = next_deliver_ - cfg_.retain_window;
  for (; decided_base_ < low && !decided_.empty(); ++decided_base_) decided_.pop_front();
  accepted_.erase(accepted_.begin(), accepted_.lower_bound(low));
}

}  // namespace dssmr::consensus
