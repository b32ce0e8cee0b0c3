// The framed wire protocol between `herc serve` and its clients.
//
// The 1993 system's task manager was one process per designer; serving a
// *shared* design history to a team needs a wire format.  It is kept
// deliberately small: a stream of length-prefixed frames,
//
//   u32 LE payload-length | u8 frame-type | payload bytes
//
// over TCP (localhost) or a Unix domain socket.  Four frame types:
//
//   kHello   server -> client, once per connection: the magic "HERCNET1",
//            structured `key=value` fields (`role=` leader|replica so
//            clients route writes without guessing from prose, `boot=`
//            a per-incarnation id so a reconnecting client can tell a
//            transient drop from a server restart) and a short banner.
//            A client that reads anything else is talking to the wrong
//            port.
//   kCommand client -> server: one interpreter command line; when the
//            command carries a heredoc body (`import ... <<END`), the
//            payload is `line\n` followed by the body.
//   kTokenCommand
//            a kCommand wearing an idempotency token: the payload is
//            `<client-id> <seq>\n` followed by a kCommand payload.  The
//            server remembers recently applied (client-id, seq) pairs
//            with their replies, so a client that lost the connection
//            after sending but before reading the result can replay the
//            exact frame and receive the original reply instead of
//            re-executing the mutation — exactly-once across retries.
//   kOutput  server -> client: the command's printed output (omitted when
//            the command printed nothing).
//   kResult  server -> client, exactly one per command: a severity byte in
//            the shared fsck/lint exit-code convention ('0' clean,
//            '1' warnings, '2' error) followed by the error message, empty
//            on success.  The structured error channel — clients decide
//            their exit code without parsing human-readable output.
//
// Commands pipeline: a client may send any number of kCommand frames
// before reading; the server answers strictly in order.
//
// Replication (PR 7) adds five frame types spoken only on a follower's
// subscription connection — see src/replica/replication.hpp for the
// payload formats:
//
//   kSubscribe  follower -> leader: "<epoch> <seq>" to resume, empty to
//               bootstrap from scratch.  The connection then becomes a
//               one-way journal stream; no further kCommand is accepted.
//   kSnapshot   leader -> follower: full store image (bootstrap/resync).
//   kJournal    leader -> follower: one journal frame and its position,
//               sealed in one checksummed envelope (support/envelope.hpp).
//   kCheckpoint leader -> follower: the leader compacted; epoch bumped.
//   kAck        follower -> leader: highest contiguously applied position
//               (feeds the per-follower lag numbers in `stats`).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "support/error.hpp"
#include "support/severity.hpp"

namespace herc::server {

/// First bytes of every kHello payload.
inline constexpr std::string_view kMagic = "HERCNET1";

/// Frames above this are a protocol violation (a desynchronized or hostile
/// peer), not a large result: payloads are command lines and text reports.
inline constexpr std::size_t kMaxFramePayload = 64u * 1024u * 1024u;

/// On-wire frame type byte.
enum class FrameType : unsigned char {
  kHello = 'H',
  kCommand = 'C',
  kTokenCommand = 'T',
  kOutput = 'O',
  kResult = 'R',
  kSubscribe = 'S',
  kSnapshot = 'P',
  kJournal = 'J',
  kCheckpoint = 'K',
  kAck = 'A',
};

struct Frame {
  FrameType type = FrameType::kCommand;
  std::string payload;
};

/// Serializes one frame (header + payload).  Throws `support::NetError`
/// when the payload exceeds `kMaxFramePayload`.
[[nodiscard]] std::string encode_frame(const Frame& frame);

/// Writes `frames` to a connected socket as one buffer with one `send`
/// (looping only over partial sends and EINTR), so a reply's kOutput and
/// kResult frames leave together.  Throws `support::NetError` when a
/// payload exceeds `kMaxFramePayload` (nothing is sent) or the peer is
/// gone.
void write_frames(int fd, std::span<const Frame> frames);

/// `write_frames` for one frame.
void write_frame(int fd, const Frame& frame);

/// The bounded read below with no deadline: false on a clean end-of-stream
/// at a frame boundary.
[[nodiscard]] bool read_frame(int fd, Frame& frame);

/// Read deadlines for the bounded variant below.  Zero disables a limit.
struct ReadDeadline {
  /// Max ms to wait for the *first* byte of the next frame.  Expiring
  /// here is not an error — the peer is merely quiet — so the bounded
  /// read reports `kIdle` and the caller decides (the server's idle
  /// reaper, a client's reply timeout).
  int idle_ms = 0;
  /// Max ms for the rest of the frame once its first byte arrived.  A
  /// peer that starts a frame and stalls is half-open or hostile;
  /// expiring here throws `support::NetError`.
  int frame_ms = 0;
};

enum class ReadOutcome {
  kFrame,  ///< a frame was read
  kEof,    ///< clean end-of-stream at a frame boundary
  kIdle,   ///< idle_ms expired before the first byte of a frame
};

/// Thrown by the bounded read when a peer starts a frame and stalls past
/// `frame_ms`.  Derives `NetError` so callers that treat every network
/// failure alike need not care; the server's reader distinguishes it to
/// count the reap (the peer was shed, it did not die on its own).
class FrameStallError : public support::NetError {
 public:
  using support::NetError::NetError;
};

/// Reads one frame under `deadline`.  Throws `support::NetError` on a
/// mid-frame disconnect, an unknown type byte, an oversized length or a
/// mid-frame stall past `frame_ms`.
[[nodiscard]] ReadOutcome read_frame(int fd, Frame& frame,
                                     const ReadDeadline& deadline);

/// Splits a kCommand payload into the command line and its heredoc body
/// (empty when the payload has no newline).
struct CommandPayload {
  std::string line;
  std::string body;
};
[[nodiscard]] CommandPayload split_command(std::string_view payload);

/// The commands a server connection answers itself instead of passing
/// them to the interpreter: `stats [--json]`, `replicas [--json]`, and
/// `session user <name>`, which names the user stamped on the
/// connection's writes.  `args` are the command line's words.
enum class ConnectionCommand { kNone, kStats, kReplicas, kUser };
[[nodiscard]] ConnectionCommand connection_command(
    const std::vector<std::string>& args);

/// Builds a kTokenCommand payload: `<client-id> <seq>\n` + the kCommand
/// payload it wraps.  The client id may not contain whitespace.
[[nodiscard]] std::string encode_token(std::string_view client_id,
                                       std::uint64_t seq,
                                       std::string_view command_payload);

/// A parsed kTokenCommand payload.
struct TokenInfo {
  std::string client_id;
  std::uint64_t seq = 0;
  /// The wrapped kCommand payload (feed to `split_command`).
  std::string command;
};
/// Throws `support::NetError` on a malformed token line.
[[nodiscard]] TokenInfo split_token(std::string_view payload);

/// Builds a kHello payload: magic, `role=`, `boot=`, then the banner.
[[nodiscard]] std::string encode_hello(std::string_view role,
                                       std::uint64_t boot_id,
                                       std::string_view banner);

/// Parsed kHello payload.  Unknown `key=value` fields are skipped, so
/// older clients survive newer servers and vice versa.
struct HelloInfo {
  /// "leader" | "replica"; defaults to leader when the field is absent.
  std::string role = "leader";
  /// The server incarnation id (0 when absent).  A client that
  /// reconnects and sees a different boot id knows the server restarted
  /// — its in-memory idempotency window is gone, so unacked mutations
  /// must not be blindly replayed.
  std::uint64_t boot_id = 0;
  /// The human-readable remainder.
  std::string banner;
};
/// Throws `support::NetError` when the payload does not start with the
/// magic.
[[nodiscard]] HelloInfo decode_hello(std::string_view payload);

/// The kResult payload: severity byte + error message.
[[nodiscard]] std::string encode_result(support::Severity severity,
                                        std::string_view error);
struct ResultInfo {
  support::Severity severity = support::Severity::kClean;
  std::string error;
};
/// Throws `support::NetError` on an empty or malformed payload.
[[nodiscard]] ResultInfo decode_result(std::string_view payload);

}  // namespace herc::server
