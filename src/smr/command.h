// Commands, prophecies and replies — the vocabulary shared by clients,
// partition servers and the oracle (Section 3 of the paper).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.h"
#include "net/message.h"

namespace dssmr::smr {

/// The five DS-SMR command types. Consult is carried separately (it never
/// reaches a partition); the rest are delivered to partitions by atomic
/// multicast.
enum class CommandType : std::uint8_t {
  kAccess,    // application command reading/writing a set of variables
  kCreate,    // create one variable
  kDelete,    // delete one variable
  kMove,      // relocate a set of variables to one partition
  kReconfig,  // partition-membership record (elastic add/retire), oracle-only
};

const char* to_string(CommandType t);

struct Command {
  CommandType type = CommandType::kAccess;
  /// Stable across client retries; servers deduplicate on it.
  MsgId id{};
  /// Causal trace id (stats/span.h): the root client command's id, set by the
  /// issuing client proxy and copied onto derived commands (moves), so every
  /// layer's spans land in the same trace tree. 0 when tracing is off.
  std::uint64_t trace_id = 0;

  // -- kAccess --------------------------------------------------------------
  /// Application opcode, interpreted by the AppStateMachine.
  std::uint32_t op = 0;
  /// Variables read / written. For create/delete/move these double as the
  /// target variable set.
  std::vector<VarId> read_set;
  std::vector<VarId> write_set;
  /// Opaque application argument (e.g. the text of a post).
  std::string arg;

  // -- kReconfig ------------------------------------------------------------
  // Membership records are multicast to the oracle group only, so they ride
  // the kMove fields: move_dest names the affected partition and `op` is 0
  // for add, 1 for retire (see core/oracle.h kReconfigAdd/kReconfigRetire).

  // -- kMove, and a kAccess that rides its own move ---------------------------
  /// Source partitions variables may currently live in.
  std::vector<GroupId> move_sources;
  /// Destination partition.
  GroupId move_dest = kNoGroup;

  /// read_set ∪ write_set, deduplicated.
  std::vector<VarId> vars() const;

  /// A fused move: an access that relocates its variables from move_sources
  /// to move_dest and then executes there, in one multicast (see fuse_move).
  bool fused_move() const { return type == CommandType::kAccess && move_dest != kNoGroup; }

  /// Approximate wire size (drives the bandwidth model).
  std::size_t size_bytes() const;
};

/// Builds a kMove command: relocate `vars` from `sources` to `dest`. The
/// oracle's rebalance chunks are the only bare moves; `trace_id` is 0 for
/// them. The reply goes to the move's submitter.
Command make_move(MsgId id, std::uint64_t trace_id, std::vector<VarId> vars,
                  std::vector<GroupId> sources, GroupId dest);

/// Builds one attempt of a fused move: `access` under the fresh logical id
/// `id`, relocating its variables from `sources` to `dest`, where it then
/// executes. Each attempt has its own id because the destination settles a
/// failed attempt too (see PartitionServer).
Command fuse_move(const Command& access, MsgId id, std::vector<GroupId> sources, GroupId dest);

/// The groups a move (bare or fused) is multicast to: its sources ∪ {its
/// destination, the oracle group `oracle`}, which applies it to the mapping.
/// Sorted. Every builder names each group once: the sources are distinct and
/// never include the destination.
std::vector<GroupId> move_groups(const Command& move, GroupId oracle);

/// Envelope for a command travelling through atomic multicast.
struct CommandMsg final : net::Message {
  Command cmd;
  explicit CommandMsg(Command c) : cmd(std::move(c)) {}
  const char* type_name() const override { return "smr.command"; }
  std::size_t size_bytes() const override { return cmd.size_bytes(); }
  std::uint64_t trace_id() const override { return cmd.trace_id; }
};

enum class ReplyCode : std::uint8_t {
  kOk,
  kRetry,        // partition did not hold all variables — re-consult the oracle
  kNok,          // command cannot execute (missing/duplicate variable)
  kRetired,      // partition has drained and left the deployment — re-consult
  kNotInvolved,  // multi-partition command: partition holds none of its variables
};

const char* to_string(ReplyCode c);

/// Server-side timestamps piggybacked on replies (Dapper-style annotations):
/// when the executing group delivered the command, when execution started
/// and finished on its simulated CPU, and when a move destination had every
/// source's shipment in (0 for commands that move nothing). The client proxy
/// uses them to decompose its post-send wait into amcast / move / queue /
/// execute / reply span phases. All-zero when the server answered without
/// executing.
struct ReplyTiming {
  Time delivered_at = 0;
  Time exec_start = 0;
  Time exec_end = 0;
  Time inputs_in = 0;
};

/// Server -> client reply.
struct ReplyMsg final : net::Message {
  MsgId cmd_id;
  ReplyCode code;
  GroupId from_group;
  net::MessagePtr app_reply;  // application-level result (may be null)
  ReplyTiming timing;
  ReplyMsg(MsgId id, ReplyCode c, GroupId g, net::MessagePtr r = nullptr, ReplyTiming t = {})
      : cmd_id(id), code(c), from_group(g), app_reply(std::move(r)), timing(t) {}
  const char* type_name() const override { return "smr.reply"; }
  std::size_t size_bytes() const override {
    return 32 + 32 + (app_reply != nullptr ? app_reply->size_bytes() : 0);
  }
};

/// Move destination -> requester: which of the move's variables are actually
/// installed (held before the move or shipped by a source). Carried as the
/// app payload of a bare move's reply and of a failed fused move's. Variables
/// missing from `installed` hit a stale mapping — no source shipped them and
/// the destination gave their claim up — so the client must not cache them
/// at the destination.
struct MoveResultMsg final : net::Message {
  std::vector<VarId> installed;
  explicit MoveResultMsg(std::vector<VarId> v) : installed(std::move(v)) {}
  const char* type_name() const override { return "smr.move_result"; }
  std::size_t size_bytes() const override { return 16 + installed.size() * 8; }
};

// ---- oracle interaction -----------------------------------------------------

/// Client -> oracle: which partitions does `cmd` touch?
struct ConsultMsg final : net::Message {
  MsgId consult_id;  // distinct from cmd.id (one command may re-consult)
  Command cmd;
  ConsultMsg(MsgId id, Command c) : consult_id(id), cmd(std::move(c)) {}
  const char* type_name() const override { return "oracle.consult"; }
  std::size_t size_bytes() const override { return 16 + cmd.size_bytes(); }
  std::uint64_t trace_id() const override { return cmd.trace_id; }
};

/// The oracle's answer (the paper's "prophecy").
struct ProphecyMsg final : net::Message {
  MsgId consult_id;
  ReplyCode code;  // kNok when the command cannot execute
  /// Per-variable location, <v, P>.
  std::vector<std::pair<VarId, GroupId>> locations;
  /// Destination the oracle recommends for collocation (kNoGroup if the
  /// command is already single-partition).
  GroupId dest = kNoGroup;
  /// Prophecy prefetch: up to --prefetch-k variables recently co-accessed
  /// with the command's, with their current locations, so the client warms
  /// its cache and skips future consults. Empty when prefetch is off.
  std::vector<std::pair<VarId, GroupId>> prefetch;

  ProphecyMsg(MsgId id, ReplyCode c) : consult_id(id), code(c) {}
  const char* type_name() const override { return "oracle.prophecy"; }
  std::size_t size_bytes() const override {
    return 32 + (locations.size() + prefetch.size()) * 12;
  }
};

// ---- inter-partition coordination -------------------------------------------

struct VarValue;  // smr/app.h

/// Variables (possibly none) shipped from one partition to another for a
/// command: S-SMR variable exchange for a multi-partition access, ownership
/// transfer for a move. An empty `vars` still counts as the sender's signal.
struct VarShipMsg final : net::Message {
  MsgId cmd_id;
  GroupId from_group;
  /// Cloned snapshots; receivers clone again before mutating.
  std::vector<std::pair<VarId, std::shared_ptr<const VarValue>>> vars;

  VarShipMsg(MsgId id, GroupId g, std::vector<std::pair<VarId, std::shared_ptr<const VarValue>>> v)
      : cmd_id(id), from_group(g), vars(std::move(v)) {}
  const char* type_name() const override { return "smr.varship"; }
  std::size_t size_bytes() const override;
};

/// Execution-atomicity signal (create/delete coordination with the oracle).
struct SignalMsg final : net::Message {
  MsgId cmd_id;
  GroupId from_group;
  SignalMsg(MsgId id, GroupId g) : cmd_id(id), from_group(g) {}
  const char* type_name() const override { return "smr.signal"; }
  std::size_t size_bytes() const override { return 24; }
};

}  // namespace dssmr::smr
