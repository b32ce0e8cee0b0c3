// `herc::server::ResilientClient`: exactly-once sessions over an
// unreliable network.
//
// `server::Client` is honest about failure — any socket error throws and
// the caller holds the pieces: was the mutation applied before the
// connection died?  This wrapper answers that question.  Every command is
// sent wearing an idempotency token (a per-instance client id plus a
// monotone sequence number); when the connection dies the client
// reconnects with capped, jittered exponential backoff and *re-sends the
// same tokens*.  The server's dedup window recognizes a replayed token of
// an applied mutation and serves the original reply instead of executing
// twice — so a retry is always safe, and an acked command was applied
// exactly once.
//
// The guarantee holds within one server incarnation.  The dedup window
// lives in server memory: if the server restarts (the hello `boot=` id
// changes) while tokened commands are unacked, their outcome is genuinely
// unknown — journal-durable if they committed, gone if they didn't — and
// the client says so with a structured error instead of guessing.
//
// Connection-scoped state is re-established on reconnect: the session
// user is replayed before any queued command.  Workspace state (flows
// built on the connection) is *not* — the workspace dies with the
// connection — so `generation()` counts reconnects and lets callers
// notice that plans they built may be gone.
//
// Reads can fail over: when the leader is unreachable and the command
// classifies as a read, the client tries the configured replica endpoints
// (untokened — replicas refuse writes, and re-running a read is free).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "server/client.hpp"
#include "server/socket.hpp"
#include "support/backoff.hpp"

namespace herc::server {

struct ResilientOptions {
  /// Bounds each TCP connect plus hello read.
  int connect_timeout_ms = 2'000;
  /// Bounds each reply read (0 = wait forever — only sane for `run`-heavy
  /// workloads with no fault injection).
  int read_timeout_ms = 30'000;
  /// Connect/retry cycles per operation before giving up.
  int max_attempts = 8;
  /// Reconnect backoff: base doubles up to cap, jittered ±25%.
  int backoff_base_ms = 50;
  int backoff_cap_ms = 2'000;
  /// Jitter seed; 0 derives one from the client id so concurrent clients
  /// de-synchronize deterministically under a fixed id.
  std::uint64_t seed = 0;
  /// Idempotency identity.  Empty = a fresh unique id (pid + counter).
  /// Reusing an id across instances restarts the sequence at 1 and would
  /// collide with the server's cached window for that id — only pass one
  /// when resuming a persisted (id, seq) pair.
  std::string client_id;
};

class ResilientClient {
 public:
  ResilientClient(Endpoint leader, ResilientOptions options = {});

  ResilientClient(ResilientClient&&) = default;
  ResilientClient& operator=(ResilientClient&&) = default;

  /// Replaces the leader and the read-failover replica endpoints (e.g.
  /// after a failover promoted a follower).  Takes effect at the next
  /// reconnect; the live connection, pending queue, and sequence keep
  /// going.
  void set_endpoints(Endpoint leader, std::vector<Endpoint> replicas = {});

  /// Abort hook for the backoff sleeps: when `*abort` becomes true a
  /// retry loop gives up promptly with the last network error.
  void set_abort(const std::atomic<bool>* abort) { abort_ = abort; }

  /// One command, exactly once: tokened send + receive with reconnect and
  /// same-token replay on failure.  `session user ...` is intercepted and
  /// also re-applied on every reconnect.  Throws `support::NetError` when
  /// attempts are exhausted or the outcome became unknown (restart).
  [[nodiscard]] CallResult call(std::string_view command,
                                std::string_view body = "");

  /// Pipelined form: `send` queues and transmits without waiting;
  /// `receive` returns replies strictly in send order, replaying every
  /// unacknowledged token after a reconnect.
  void send(std::string_view command, std::string_view body = "");
  [[nodiscard]] CallResult receive();
  [[nodiscard]] std::size_t pending() const { return pending_.size(); }

  /// Drops every pending command — accepting that their outcomes stay
  /// unknown — and closes the connection (its replies would desync the
  /// queue), so the client is usable again after `call`/`receive` gave
  /// up.
  void abandon_pending() {
    pending_.clear();
    transmitted_ = 0;
    client_.close();
  }

  /// Bumps on every new connection after the first.  A caller that built
  /// connection-scoped workspace state should treat a changed generation
  /// as "my flows are gone".
  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  [[nodiscard]] std::uint64_t reconnects() const { return reconnects_; }
  /// Tokens re-sent after a reconnect (the replay traffic).
  [[nodiscard]] std::uint64_t replays() const { return replays_; }
  /// Reads answered by a replica because the leader was unreachable.
  [[nodiscard]] std::uint64_t failovers() const { return failovers_; }

  [[nodiscard]] const std::string& client_id() const { return client_id_; }
  [[nodiscard]] bool connected() const { return client_.connected(); }
  /// The boot id of the server the last connection reached (0 = never
  /// connected).
  [[nodiscard]] std::uint64_t server_boot() const { return last_boot_; }

  void close() { client_.close(); }

 private:
  struct Pending {
    std::uint64_t seq = 0;
    std::string command;
    std::string body;
    bool read = false;  ///< read-classified → eligible for replica failover
    /// Ever put on a wire: only a transmitted command can have been
    /// applied, so only these become "outcome unknown" after a restart.
    bool ever_sent = false;
  };

  /// Connects (if needed), verifies the incarnation, re-applies the
  /// session user, and replays `pending_`.  Throws NetError on failure —
  /// including the outcome-unknown restart case, which also clears
  /// `pending_` (retrying those tokens against a new incarnation would
  /// re-execute them).
  void ensure_connected();
  /// Tries each replica endpoint in turn for a read; appends failures to
  /// `*error`.  True = `*out` holds a replica's answer.
  [[nodiscard]] bool read_from_replica(std::string_view command,
                                       std::string_view body,
                                       std::string* error, CallResult* out);

  Endpoint leader_;
  std::vector<Endpoint> replicas_;
  ResilientOptions options_;
  std::string client_id_;
  Client client_;
  support::Backoff backoff_;
  const std::atomic<bool>* abort_ = nullptr;

  std::uint64_t seq_ = 0;
  std::deque<Pending> pending_;
  /// Pendings (a prefix of `pending_`) transmitted on the *current*
  /// connection; anything beyond is (re)sent before the next receive.
  std::size_t transmitted_ = 0;
  std::string user_;  ///< re-applied on reconnect; empty = never set

  std::uint64_t last_boot_ = 0;
  std::uint64_t generation_ = 0;
  std::uint64_t reconnects_ = 0;
  std::uint64_t replays_ = 0;
  std::uint64_t failovers_ = 0;
};

}  // namespace herc::server
