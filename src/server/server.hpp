// `herc serve`: one daemon owning a durable DesignSession, many clients.
//
// The paper's framework is single-designer; design *management* is a team
// activity.  The server turns one session — typically opened over a
// durable store — into a shared resource:
//
//   - Reader-writer access: each frame is parsed once into a
//     `cli::Command`, whose command-table row names its lock.  Reads
//     execute concurrently under a shared lock (queries, browsing, flow
//     building in the connection's own workspace, and any line that
//     matches no row, which fails as a usage error); mutating commands
//     serialize under an exclusive lock and reach the session's store,
//     which journals each one and publishes it on its change feed to the
//     indexes and the replication shipper, exactly as in a local shell.
//   - One thread per connection: it reads a frame, runs the command under
//     the lock its table row names, and sends the reply with one write
//     before it reads the next frame.  Pipelined frames wait in the
//     socket's receive buffer, so a client that sends faster than the
//     server answers is held back by the transport's own flow control.
//   - Per-connection identity: `session user` is intercepted and applied
//     under the exclusive lock before each write, so concurrent clients'
//     products carry the right creating user.
//   - Graceful shutdown: `stop()` raises the session's cooperative cancel
//     flag (an in-flight `run` stops launching tasks and its run record
//     stays open), refuses the commands still buffered on each
//     connection, seals every open run and syncs the journal — the store
//     on disk is fsck-clean and every interrupted run resumable.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/session.hpp"
#include "server/latency.hpp"
#include "server/protocol.hpp"
#include "server/socket.hpp"

namespace herc::cli {
struct Command;
}

namespace herc::server {

struct ServeOptions {
  /// Serve a replica: write-classified commands are refused with a
  /// structured error, the hello banner says so, and shutdown does not
  /// seal open runs (they are the leader's live runs, not crashes).
  bool read_only = false;
  /// Reap a connection that sends nothing for this long while its thread
  /// waits for the next command (a half-open peer must not pin its thread
  /// forever).  A command that is executing, or a follower's journal
  /// stream, is never reaped.  0 disables the reaper.
  int idle_timeout_ms = 600'000;
  /// A peer that starts a frame must finish it within this (half-open
  /// mid-frame, or a hostile trickler).  0 disables the deadline.
  int frame_timeout_ms = 30'000;
  /// Replies cached per client id for idempotent replay (the dedup
  /// window).  A replayed token older than the window gets a structured
  /// "outside the dedup window" error instead of a cached reply.
  std::size_t dedup_window = 128;
};

/// Leader-side replication service plugged into the server (implemented by
/// `replica::JournalShipper` in src/replica — the server knows only this
/// interface, so herc_server does not depend on herc_replica).
///
/// Lifecycle per follower connection: the connection thread calls
/// `subscribe` under the *exclusive* session lock (no mutation can
/// interleave, so the bootstrap is position-atomic), then starts the
/// connection's pump thread, which drains `next_frame` to the socket until
/// the stream ends.  The connection thread keeps reading, feeds `ack` as
/// progress reports arrive, and joins the pump when the stream ends.
class ReplicationHub {
 public:
  virtual ~ReplicationHub() = default;
  /// Registers follower `conn_id` at the position it announced (a
  /// kSubscribe payload).  Queues the bootstrap frames (snapshot or
  /// journal backlog).  Returns false — with `*error` explaining — when
  /// the position is unusable (e.g. a fenced stale leader re-attaching).
  [[nodiscard]] virtual bool subscribe(std::uint64_t conn_id,
                                       const std::string& peer,
                                       std::string_view position,
                                       std::string* error) = 0;
  /// Blocks until a frame is queued for `conn_id`; false = stream over
  /// (unsubscribed, overflowed, or the hub is closing).
  [[nodiscard]] virtual bool next_frame(std::uint64_t conn_id,
                                        Frame& frame) = 0;
  /// Progress report from the follower (a kAck payload).
  virtual void ack(std::uint64_t conn_id, std::string_view payload) = 0;
  /// Drops the follower (its connection is closing).
  virtual void unsubscribe(std::uint64_t conn_id) = 0;
  /// One line per follower: acked position and lag (for `replicas` and
  /// `stats`).  When `json` the lines form a JSON array instead.
  [[nodiscard]] virtual std::string render_followers(bool json) const = 0;
  /// Ends every follower stream (server shutdown); wakes all pumps.
  virtual void close_all() = 0;
};

/// Journal position shown in `stats` (and the source of the lag metric).
struct JournalPosition {
  std::uint64_t epoch = 0;
  std::uint64_t seq = 0;
  std::uint64_t bytes = 0;
  /// Why the store refuses writes: its first failed journal write or
  /// checkpoint (`DurableHistory::failure`); empty while it is healthy.
  std::string failure;
};

/// Aggregate counters, readable while the server runs (`stats` command).
struct ServerStats {
  std::atomic<std::uint64_t> connections_accepted{0};
  std::atomic<std::uint64_t> connections_active{0};
  std::atomic<std::uint64_t> commands_executed{0};
  std::atomic<std::uint64_t> read_commands{0};
  std::atomic<std::uint64_t> write_commands{0};
  std::atomic<std::uint64_t> command_errors{0};
  std::atomic<std::uint64_t> bytes_in{0};
  std::atomic<std::uint64_t> bytes_out{0};
  /// Tokened mutations recognized as duplicates (replays and
  /// outside-the-window retries both count).
  std::atomic<std::uint64_t> dedup_hits{0};
  /// Duplicates answered with the cached original reply (the exactly-once
  /// path; <= dedup_hits).
  std::atomic<std::uint64_t> replays_served{0};
  /// Connections closed by the idle/mid-frame deadline reaper.
  std::atomic<std::uint64_t> connections_reaped{0};
  /// Per-command execution time (frame read and reply write excluded),
  /// microseconds.  The `stats` command reports p50/p95/p99 from here;
  /// the scale benchmark reads it for BENCH_scale.json.
  LatencyHistogram command_latency;
};

class Server {
 public:
  /// Serves `session`, which must outlive the server.  The session is
  /// typically already attached to a durable store; the server does not
  /// open or close storage itself.
  explicit Server(core::DesignSession& session, ServeOptions options = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds a listener before `start()`.  Returns the bound endpoint (port
  /// 0 resolved to the kernel's pick).  Throws `support::NetError`.
  Endpoint add_listener(const Endpoint& endpoint);

  /// Starts the accept loop.  At least one listener must be bound.
  void start();

  /// Graceful shutdown: stop accepting, cancel in-flight runs
  /// cooperatively, answer commands still buffered on a connection with
  /// an error, join every connection, then seal open runs and sync the
  /// journal, unless the store's writes failed.  Idempotent.
  void stop();

  [[nodiscard]] bool running() const { return running_.load(); }
  [[nodiscard]] const ServerStats& stats() const { return stats_; }
  [[nodiscard]] core::DesignSession& session() { return session_; }
  /// This incarnation's id (sent in the hello `boot=` field).
  [[nodiscard]] std::uint64_t boot_id() const { return boot_id_; }

  /// Attaches the leader-side replication service (before `start()`;
  /// nullptr detaches).  Without one, kSubscribe frames are refused.
  void set_replication_hub(ReplicationHub* hub) { hub_ = hub; }

  /// Where `stats` reads the journal position.  A follower server sets
  /// this to its applier's position; a leader defaults to the session's
  /// open store (read under the shared session lock).
  void set_position_source(std::function<JournalPosition()> source) {
    position_source_ = std::move(source);
  }

  /// Runs `fn` under the exclusive session lock — the replica applier's
  /// write gate: replicated frames mutate the session while reader
  /// connections query it under the shared lock.
  void with_exclusive_session(const std::function<void()>& fn) {
    std::unique_lock lock(session_mutex_);
    fn();
  }

 private:
  struct Connection;
  struct ClientWindow;

  void accept_loop();
  /// The connection's thread: reads frames and answers each before it
  /// reads the next, until end-of-stream, `quit`, a dead peer or a reap.
  void connection_loop(Connection& conn);
  /// Runs one command frame and sends its reply with one write.  False
  /// when the connection should close (`quit`, or the peer is gone).
  bool serve_command(Connection& conn, const Frame& frame);
  /// Executes one parsed command under the lock its table row names;
  /// returns the result frame payload and appends printed output to
  /// `output`.
  std::string execute_command(Connection& conn, const cli::Command& cmd,
                              std::string& output, bool& quit);
  /// The kTokenCommand path: dedup window consult/record around
  /// `execute_command` for mutating commands.
  std::string execute_tokened(Connection& conn, const std::string& payload,
                              std::string& output, bool& quit);
  /// Finds/creates the client's dedup window (dedup_mutex_ held), bumping
  /// its LRU tick; evicts the least recently active idle client at cap.
  ClientWindow& touch_window(const std::string& client_id);
  /// Handles a kSubscribe frame: registers the follower with the hub.  On
  /// refusal sends the error result and returns false (the connection
  /// closes).
  bool subscribe(Connection& conn, const Frame& frame);
  /// The pump thread: sends the hub's journal stream to the socket until
  /// it ends, then shuts the connection down.
  void pump_journal(Connection& conn);
  [[nodiscard]] std::string render_stats(const Connection& conn,
                                         bool json) const;
  [[nodiscard]] JournalPosition journal_position() const;
  void join_finished_connections();

  core::DesignSession& session_;
  ServeOptions options_;
  ServerStats stats_;
  ReplicationHub* hub_ = nullptr;
  std::function<JournalPosition()> position_source_;
  std::chrono::steady_clock::time_point started_{};

  /// Readers share, writers exclude; guards every session access.
  /// `mutable`: `stats` reads the journal position under the shared lock
  /// from a const rendering path.
  mutable std::shared_mutex session_mutex_;
  /// Raised by `stop()`; the session's executor polls it between task
  /// groups.
  std::atomic<bool> cancel_{false};
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};

  struct Listener {
    Socket sock;
    Endpoint endpoint;
  };
  std::vector<Listener> listeners_;
  /// Self-pipe: `stop()` writes a byte to wake the accept loop's poll.
  int wake_pipe_[2] = {-1, -1};
  std::thread accept_thread_;

  std::mutex connections_mutex_;
  std::list<std::unique_ptr<Connection>> connections_;
  std::uint64_t next_connection_id_ = 1;

  /// Unique per Server instance (process id + construction counter), so a
  /// reconnecting client can tell "same server, replay is safe" from "the
  /// server restarted and its dedup window is gone".
  std::uint64_t boot_id_ = 0;

  /// The idempotency dedup state, keyed by client id.  One mutex + cv for
  /// all clients: dedup traffic is rare (only duplicate or in-flight
  /// tokens ever wait here).
  std::mutex dedup_mutex_;
  std::condition_variable_any dedup_cv_;
  std::unordered_map<std::string, std::unique_ptr<ClientWindow>> dedup_;
  std::uint64_t dedup_clock_ = 0;  ///< LRU tick for client eviction
};

}  // namespace herc::server
