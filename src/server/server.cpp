#include "server/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <deque>
#include <map>
#include <set>
#include <span>
#include <sstream>

#include <poll.h>
#include <unistd.h>

#include "cli/interpreter.hpp"
#include "server/protocol.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace herc::server {

using support::NetError;
using support::Severity;

namespace {

constexpr std::size_t kFrameOverhead = 5;  // wire header per frame
constexpr std::size_t kDedupClients = 1024;  // windows kept; LRU evicted

/// What every open run is tagged with when the server winds down.
constexpr std::string_view kShutdownSealReason =
    "server shutdown: the run was cancelled mid-flight";

/// Distinguishes server incarnations within one process (in-process
/// restarts in tests and the swarm harness reuse the pid).
std::atomic<std::uint64_t> g_boot_counter{0};

}  // namespace

struct Server::Connection {
  Socket sock;
  std::uint64_t id = 0;
  std::string peer;
  /// Applied via `DesignSession::set_user` under the exclusive lock before
  /// every write command, so concurrent clients stamp their own products.
  std::string user = "designer";
  std::ostringstream out;
  std::unique_ptr<cli::Interpreter> interp;
  std::uint64_t commands = 0;
  std::atomic<bool> done{false};
  std::thread thread;
};

/// The per-client idempotency dedup window: replies of recently applied
/// tokened mutations, plus the tokens currently executing (a retry that
/// races its own original waits for the reply instead of re-executing).
struct Server::ClientWindow {
  struct CachedReply {
    std::string output;
    std::string result;
  };
  std::map<std::uint64_t, CachedReply> done;
  std::deque<std::uint64_t> order;  ///< insertion order, for eviction
  std::set<std::uint64_t> in_flight;
  /// Highest evicted seq: anything at or below without a cached reply is
  /// outside the window ("whether it ran is unknowable" error).
  std::uint64_t floor = 0;
  std::uint64_t last_used = 0;  ///< LRU tick for client eviction
};

Server::Server(core::DesignSession& session, ServeOptions options)
    : session_(session), options_(options) {
  if (options_.dedup_window == 0) options_.dedup_window = 1;
  boot_id_ =
      (static_cast<std::uint64_t>(::getpid()) << 48) ^
      (g_boot_counter.fetch_add(1, std::memory_order_relaxed) + 1) ^
      (static_cast<std::uint64_t>(
           std::chrono::system_clock::now().time_since_epoch().count())
       << 16);
  if (boot_id_ == 0) boot_id_ = 1;  // 0 means "unknown" on the wire
}

Server::~Server() {
  stop();
  // A server that never started still owns pipe fds when start() threw.
  for (const int fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
  }
}

Endpoint Server::add_listener(const Endpoint& endpoint) {
  if (running_.load()) {
    throw NetError("add_listener: the server is already running");
  }
  Listener listener;
  listener.endpoint = endpoint;
  listener.sock = listen_on(listener.endpoint);
  listeners_.push_back(std::move(listener));
  return listeners_.back().endpoint;
}

void Server::start() {
  if (listeners_.empty()) {
    throw NetError("start: no listeners bound (call add_listener first)");
  }
  if (running_.exchange(true)) {
    throw NetError("start: the server is already running");
  }
  stopping_.store(false);
  cancel_.store(false);
  started_ = std::chrono::steady_clock::now();
  if (::pipe(wake_pipe_) != 0) {
    running_.store(false);
    throw NetError("start: cannot create the wake pipe");
  }
  // From here on an in-flight run can be stopped cooperatively (stop()
  // raises the flag; the executor polls it between task groups).
  session_.set_cancel_flag(&cancel_);
  accept_thread_ = std::thread(&Server::accept_loop, this);
}

void Server::accept_loop() {
  while (true) {
    std::vector<pollfd> fds;
    fds.push_back({wake_pipe_[0], POLLIN, 0});
    for (const Listener& l : listeners_) {
      fds.push_back({l.sock.fd(), POLLIN, 0});
    }
    const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[0].revents != 0) break;  // stop() wrote the wake byte
    for (std::size_t i = 1; i < fds.size(); ++i) {
      if ((fds[i].revents & POLLIN) == 0) continue;
      std::string peer;
      Socket sock = accept_from(listeners_[i - 1].sock, &peer);
      if (!sock.valid() || stopping_.load()) continue;

      auto conn = std::make_unique<Connection>();
      conn->sock = std::move(sock);
      conn->peer = std::move(peer);
      try {
        write_frame(conn->sock.fd(),
                    {FrameType::kHello,
                     encode_hello(options_.read_only ? "replica" : "leader",
                                  boot_id_,
                                  options_.read_only
                                      ? "herc replica (read-only)"
                                      : "herc design server")});
      } catch (const NetError&) {
        continue;  // the peer vanished between connect and hello
      }
      conn->interp =
          std::make_unique<cli::Interpreter>(conn->out, session_);
      stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
      stats_.connections_active.fetch_add(1, std::memory_order_relaxed);
      Connection& ref = *conn;
      {
        std::scoped_lock lock(connections_mutex_);
        ref.id = next_connection_id_++;
        connections_.push_back(std::move(conn));
      }
      ref.thread = std::thread(&Server::connection_loop, this, std::ref(ref));
    }
    join_finished_connections();
  }
}

void Server::connection_loop(Connection& conn) {
  bool reaped = false;
  std::thread pump;  // a follower's journal stream, once it subscribed
  try {
    Frame frame;
    const ReadDeadline deadline{options_.idle_timeout_ms,
                                options_.frame_timeout_ms};
    while (true) {
      const ReadOutcome outcome = read_frame(conn.sock.fd(), frame, deadline);
      if (outcome == ReadOutcome::kEof) break;
      if (outcome == ReadOutcome::kIdle) {
        // Only a connection waiting for its next command is reaped: a
        // follower's acks pause whenever its stream does.
        if (pump.joinable() || stopping_.load()) continue;
        reaped = true;
        break;
      }
      stats_.bytes_in.fetch_add(frame.payload.size() + kFrameOverhead,
                                std::memory_order_relaxed);
      if (frame.type == FrameType::kAck) {
        if (hub_ != nullptr) hub_->ack(conn.id, frame.payload);
        continue;
      }
      // A journal stream is one-way: the pump owns the socket's writes,
      // so anything else a follower sends goes unanswered.
      if (pump.joinable()) continue;
      if (frame.type == FrameType::kSubscribe) {
        if (!subscribe(conn, frame)) break;
        pump = std::thread(&Server::pump_journal, this, std::ref(conn));
        continue;
      }
      if (!serve_command(conn, frame)) break;
    }
  } catch (const FrameStallError&) {
    // A half-open peer held mid-frame past the deadline: the server shed
    // it — that is a reap, unlike a peer that died on its own below.
    reaped = true;
  } catch (const NetError&) {
    // A torn frame or a dead peer ends the connection like an EOF would.
  }
  if (reaped) {
    stats_.connections_reaped.fetch_add(1, std::memory_order_relaxed);
  }
  conn.sock.shutdown_both();
  if (pump.joinable()) {
    // Dropping the subscription ends a pump blocked in `next_frame`; the
    // shutdown above ends one blocked in a send.
    hub_->unsubscribe(conn.id);
    pump.join();
  }
  stats_.connections_active.fetch_sub(1, std::memory_order_relaxed);
  conn.done.store(true);
}

bool Server::serve_command(Connection& conn, const Frame& frame) {
  std::string output;
  std::string result;
  bool quit = false;
  if (frame.type != FrameType::kCommand &&
      frame.type != FrameType::kTokenCommand) {
    result = encode_result(Severity::kError,
                           "protocol error: expected a command frame");
    stats_.command_errors.fetch_add(1, std::memory_order_relaxed);
  } else if (stopping_.load()) {
    // Read or buffered behind the shutdown: refused, not silently
    // dropped — the client learns its command never ran.
    result = encode_result(Severity::kError, "server shutting down");
    stats_.command_errors.fetch_add(1, std::memory_order_relaxed);
  } else {
    const auto begin = std::chrono::steady_clock::now();
    if (frame.type == FrameType::kTokenCommand) {
      result = execute_tokened(conn, frame.payload, output, quit);
    } else {
      CommandPayload cmd = split_command(frame.payload);
      result = execute_command(
          conn, cli::Interpreter::parse(cmd.line, std::move(cmd.body)),
          output, quit);
    }
    stats_.command_latency.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - begin)
            .count()));
  }
  ++conn.commands;
  // kOutput is omitted when the command printed nothing.
  const bool printed = !output.empty();
  const Frame reply[] = {{FrameType::kOutput, std::move(output)},
                         {FrameType::kResult, std::move(result)}};
  const std::span<const Frame> frames =
      std::span(reply).subspan(printed ? 0 : 1);
  for (const Frame& f : frames) {
    stats_.bytes_out.fetch_add(f.payload.size() + kFrameOverhead,
                               std::memory_order_relaxed);
  }
  try {
    write_frames(conn.sock.fd(), frames);
  } catch (const NetError&) {
    return false;  // the peer is gone; its pipelined backlog goes unread
  }
  return !quit;
}

bool Server::subscribe(Connection& conn, const Frame& frame) {
  std::string error = "replication is not enabled on this server";
  if (hub_ != nullptr) {
    // The exclusive lock makes the bootstrap position-atomic: no mutation
    // (and therefore no shipped frame) can interleave between capturing
    // the position and queuing the bootstrap.
    std::unique_lock lock(session_mutex_);
    if (hub_->subscribe(conn.id, conn.peer, frame.payload, &error)) {
      return true;
    }
  }
  try {
    write_frame(conn.sock.fd(),
                {FrameType::kResult, encode_result(Severity::kError, error)});
  } catch (const NetError&) {
  }
  return false;
}

void Server::pump_journal(Connection& conn) {
  try {
    Frame out;
    while (hub_->next_frame(conn.id, out)) {
      stats_.bytes_out.fetch_add(out.payload.size() + kFrameOverhead,
                                 std::memory_order_relaxed);
      write_frame(conn.sock.fd(), out);
    }
  } catch (const NetError&) {
    // The follower vanished; it will reconnect and resync.
  }
  hub_->unsubscribe(conn.id);
  // The stream is over, and so is the connection: its thread's read sees
  // end-of-stream and joins this pump.
  conn.sock.shutdown_both();
}

std::string Server::execute_command(Connection& conn,
                                    const cli::Command& cmd,
                                    std::string& output, bool& quit) {
  // Connection-scoped commands: `stats` and `replicas` read only counters;
  // `session user` must not touch the shared session outside the
  // exclusive lock, so it is recorded here and applied per write command.
  switch (connection_command(cmd.args)) {
    case ConnectionCommand::kStats:
      output = render_stats(conn, cmd.args.size() == 2);
      return encode_result(Severity::kClean, "");
    case ConnectionCommand::kReplicas:
      if (hub_ == nullptr) {
        output = cmd.args.size() == 2
                     ? "[]"
                     : "replication is not enabled on this server\n";
      } else {
        output = hub_->render_followers(cmd.args.size() == 2);
      }
      return encode_result(Severity::kClean, "");
    case ConnectionCommand::kUser:
      conn.user = cmd.args[2];
      output = "user '" + conn.user + "' for this connection\n";
      return encode_result(Severity::kClean, "");
    case ConnectionCommand::kNone:
      break;
  }

  const cli::CommandAccess access = cmd.access();
  if (options_.read_only && access == cli::CommandAccess::kWrite) {
    stats_.command_errors.fetch_add(1, std::memory_order_relaxed);
    return encode_result(Severity::kError,
                         "read-only replica: '" + cmd.args[0] +
                             "' is a write command; connect to the leader");
  }
  conn.out.str(std::string());
  cli::CommandStatus status;
  if (access == cli::CommandAccess::kRead) {
    std::shared_lock lock(session_mutex_);
    stats_.read_commands.fetch_add(1, std::memory_order_relaxed);
    status = conn.interp->execute(cmd);
  } else {
    std::unique_lock lock(session_mutex_);
    stats_.write_commands.fetch_add(1, std::memory_order_relaxed);
    session_.set_user(conn.user);
    status = conn.interp->execute(cmd);
  }
  output += conn.out.str();
  stats_.commands_executed.fetch_add(1, std::memory_order_relaxed);
  if (status == cli::CommandStatus::kQuit) {
    quit = true;
    return encode_result(Severity::kClean, "");
  }
  if (status == cli::CommandStatus::kError) {
    stats_.command_errors.fetch_add(1, std::memory_order_relaxed);
    return encode_result(Severity::kError, conn.interp->last_error());
  }
  return encode_result(conn.interp->last_severity(), "");
}

Server::ClientWindow& Server::touch_window(const std::string& client_id) {
  auto it = dedup_.find(client_id);
  if (it == dedup_.end()) {
    if (dedup_.size() >= kDedupClients) {
      // Evict the least recently active client that has nothing
      // executing (a window with in-flight tokens is referenced by a
      // worker and by any waiters).
      auto victim = dedup_.end();
      for (auto w = dedup_.begin(); w != dedup_.end(); ++w) {
        if (!w->second->in_flight.empty()) continue;
        if (victim == dedup_.end() ||
            w->second->last_used < victim->second->last_used) {
          victim = w;
        }
      }
      if (victim != dedup_.end()) dedup_.erase(victim);
    }
    it = dedup_.emplace(client_id, std::make_unique<ClientWindow>()).first;
  }
  it->second->last_used = ++dedup_clock_;
  return *it->second;
}

std::string Server::execute_tokened(Connection& conn,
                                    const std::string& payload,
                                    std::string& output, bool& quit) {
  TokenInfo token;
  try {
    token = split_token(payload);
  } catch (const NetError& e) {
    stats_.command_errors.fetch_add(1, std::memory_order_relaxed);
    return encode_result(Severity::kError, e.what());
  }
  CommandPayload parts = split_command(token.command);
  const cli::Command cmd =
      cli::Interpreter::parse(parts.line, std::move(parts.body));
  // Connection-scoped commands must re-execute on the connection that
  // carries them — serving a cached reply would skip their per-connection
  // side effect.  Reads are harmless to repeat.  A read-only server
  // refuses writes before they touch anything, so its refusals need no
  // dedup either.
  if (connection_command(cmd.args) != ConnectionCommand::kNone ||
      cmd.access() == cli::CommandAccess::kRead || options_.read_only) {
    return execute_command(conn, cmd, output, quit);
  }

  std::unique_lock<std::mutex> lock(dedup_mutex_);
  ClientWindow& win = touch_window(token.client_id);
  if (const auto it = win.done.find(token.seq); it != win.done.end()) {
    // The ambiguous-retry case the token exists for: the command already
    // ran, the reply never reached the client.  Serve the original.
    stats_.dedup_hits.fetch_add(1, std::memory_order_relaxed);
    stats_.replays_served.fetch_add(1, std::memory_order_relaxed);
    output = it->second.output;
    return it->second.result;
  }
  if (win.in_flight.count(token.seq) != 0) {
    // The retry raced its own original mid-execution.  Wait for the
    // reply and serve the cached copy — running it twice is the one
    // forbidden outcome.
    stats_.dedup_hits.fetch_add(1, std::memory_order_relaxed);
    dedup_cv_.wait(lock, [&] {
      return win.in_flight.count(token.seq) == 0 || stopping_.load();
    });
    if (const auto it = win.done.find(token.seq); it != win.done.end()) {
      stats_.replays_served.fetch_add(1, std::memory_order_relaxed);
      output = it->second.output;
      return it->second.result;
    }
    stats_.command_errors.fetch_add(1, std::memory_order_relaxed);
    return encode_result(Severity::kError,
                         "duplicate token: the original attempt recorded no "
                         "reply (server shutting down)");
  }
  if (token.seq <= win.floor) {
    // Too old: the reply was evicted, so whether the command ran is
    // unknowable.  A structured refusal beats a silent second apply.
    stats_.dedup_hits.fetch_add(1, std::memory_order_relaxed);
    stats_.command_errors.fetch_add(1, std::memory_order_relaxed);
    return encode_result(
        Severity::kError,
        "token " + token.client_id + ":" + std::to_string(token.seq) +
            " is outside the dedup window; whether it was applied is "
            "unknown");
  }
  win.in_flight.insert(token.seq);
  lock.unlock();

  std::string result;
  try {
    result = execute_command(conn, cmd, output, quit);
  } catch (...) {
    lock.lock();
    win.in_flight.erase(token.seq);
    dedup_cv_.notify_all();
    throw;
  }

  lock.lock();
  win.in_flight.erase(token.seq);
  ClientWindow::CachedReply& slot = win.done[token.seq];
  slot.output = output;
  slot.result = result;
  win.order.push_back(token.seq);
  while (win.order.size() > options_.dedup_window) {
    const std::uint64_t old = win.order.front();
    win.order.pop_front();
    win.floor = std::max(win.floor, old);
    win.done.erase(old);
  }
  dedup_cv_.notify_all();
  return result;
}

JournalPosition Server::journal_position() const {
  if (position_source_) return position_source_();
  // Leader default: read the open store's position under the shared lock
  // (a concurrent writer would otherwise race these plain counters).
  std::shared_lock lock(session_mutex_);
  storage::DurableHistory* store = session_.storage();
  if (store == nullptr) return {};
  JournalPosition pos;
  pos.epoch = store->epoch();
  pos.seq = store->journal_seq();
  pos.bytes = store->journal_file_bytes();
  if (store->failure() != nullptr) pos.failure = store->failure()->what();
  return pos;
}

std::string Server::render_stats(const Connection& conn, bool json) const {
  const auto load = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  const std::uint64_t uptime =
      static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::seconds>(
          std::chrono::steady_clock::now() - started_)
              .count());
  const JournalPosition pos = journal_position();
  std::ostringstream out;
  if (json) {
    out << "{\"uptime_seconds\":" << uptime
        << ",\"read_only\":" << (options_.read_only ? "true" : "false")
        << ",\"connections_active\":" << load(stats_.connections_active)
        << ",\"connections_accepted\":" << load(stats_.connections_accepted)
        << ",\"commands_executed\":" << load(stats_.commands_executed)
        << ",\"read_commands\":" << load(stats_.read_commands)
        << ",\"write_commands\":" << load(stats_.write_commands)
        << ",\"command_errors\":" << load(stats_.command_errors)
        << ",\"bytes_in\":" << load(stats_.bytes_in)
        << ",\"bytes_out\":" << load(stats_.bytes_out)
        << ",\"dedup_hits\":" << load(stats_.dedup_hits)
        << ",\"replays_served\":" << load(stats_.replays_served)
        << ",\"connections_reaped\":" << load(stats_.connections_reaped)
        << ",\"latency_us\":{\"p50\":"
        << stats_.command_latency.percentile(0.50)
        << ",\"p95\":" << stats_.command_latency.percentile(0.95)
        << ",\"p99\":" << stats_.command_latency.percentile(0.99)
        << ",\"count\":" << stats_.command_latency.count() << "}"
        << ",\"journal_epoch\":" << pos.epoch
        << ",\"journal_seq\":" << pos.seq
        << ",\"journal_bytes\":" << pos.bytes;
    if (hub_ != nullptr) {
      out << ",\"followers\":" << hub_->render_followers(/*json=*/true);
    }
    out << ",\"journal_failure\":\"" << support::json_escape(pos.failure)
        << "\"}\n";
    return out.str();
  }
  out << "server: " << load(stats_.connections_active)
      << " active connection(s), " << load(stats_.connections_accepted)
      << " accepted, up " << uptime << "s"
      << (options_.read_only ? " (read-only replica)" : "") << "\n"
      << "commands: " << load(stats_.commands_executed) << " executed ("
      << load(stats_.read_commands) << " reads, "
      << load(stats_.write_commands) << " writes), "
      << load(stats_.command_errors) << " error(s)\n"
      << "wire: " << load(stats_.bytes_in) << " bytes in, "
      << load(stats_.bytes_out) << " bytes out\n"
      << "resilience: " << load(stats_.dedup_hits) << " dedup hit(s), "
      << load(stats_.replays_served) << " replay(s) served, "
      << load(stats_.connections_reaped) << " connection(s) reaped\n"
      << "journal: epoch " << pos.epoch << ", seq " << pos.seq << ", "
      << pos.bytes << " bytes\n"
      << "journal failure: " << (pos.failure.empty() ? "none" : pos.failure)
      << "\n"
      << "latency: p50 " << stats_.command_latency.percentile(0.50)
      << "us, p95 " << stats_.command_latency.percentile(0.95)
      << "us, p99 " << stats_.command_latency.percentile(0.99) << "us ("
      << stats_.command_latency.count() << " sampled)\n";
  if (hub_ != nullptr) out << hub_->render_followers(/*json=*/false);
  out << "this connection: #" << conn.id << " (" << conn.peer << ") user '"
      << conn.user << "', "
      << conn.commands << " command(s)\n";
  return out.str();
}

void Server::join_finished_connections() {
  std::scoped_lock lock(connections_mutex_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    Connection& conn = **it;
    if (!conn.done.load()) {
      ++it;
      continue;
    }
    if (conn.thread.joinable()) conn.thread.join();
    it = connections_.erase(it);
  }
}

void Server::stop() {
  if (!running_.load() || stopping_.exchange(true)) return;

  // 1. Cooperative cancel: an in-flight `run` stops launching task groups
  //    and reports `RunCancelled` to its client; its run record stays
  //    open.  Wake any dedup waiter parked on an in-flight token too.
  cancel_.store(true);
  {
    std::scoped_lock lock(dedup_mutex_);
  }
  dedup_cv_.notify_all();

  // 2. Stop accepting: wake the poll, join the accept loop, drop the
  //    listeners (unlinking unix socket files).
  const char byte = 'x';
  [[maybe_unused]] const ssize_t n = ::write(wake_pipe_[1], &byte, 1);
  if (accept_thread_.joinable()) accept_thread_.join();
  for (Listener& l : listeners_) {
    l.sock.close();
    if (l.endpoint.kind == Endpoint::Kind::kUnix) {
      ::unlink(l.endpoint.path.c_str());
    }
  }
  listeners_.clear();
  for (const int fd : wake_pipe_) {
    if (fd >= 0) ::close(fd);
  }
  wake_pipe_[0] = wake_pipe_[1] = -1;

  // 3. Wind down every connection: after SHUT_RD a connection thread
  //    reads until its socket's buffer runs dry, then sees end-of-stream;
  //    every command it still reads is answered "server shutting down".
  //    Follower streams end first so their pumps can join.  The
  //    executor's cancel flag bounds how long an in-flight run keeps a
  //    connection thread busy.
  if (hub_ != nullptr) hub_->close_all();
  {
    std::scoped_lock lock(connections_mutex_);
    for (const std::unique_ptr<Connection>& conn : connections_) {
      conn->sock.shutdown_read();
    }
    for (const std::unique_ptr<Connection>& conn : connections_) {
      if (conn->thread.joinable()) conn->thread.join();
    }
    connections_.clear();
  }

  // 4. Leave a clean, resumable store: quarantine the cancelled runs'
  //    partials, seal their sweep windows, sync the journal.  After this
  //    `herc fsck` reports the store clean and `herc resume` finishes the
  //    interrupted work.  A read-only replica skips the seal: its open
  //    runs are the leader's live runs, and its history may only change
  //    through replicated frames.  A store that cannot journal the seal
  //    keeps that failure (`stats` shows it) and leaves the seal to the
  //    next open's crash sweep: `stop` runs from the destructor too.
  {
    std::unique_lock lock(session_mutex_);
    session_.set_cancel_flag(nullptr);
    try {
      if (!options_.read_only) session_.seal_open_runs(kShutdownSealReason);
    } catch (const support::HistoryError&) {  // NOLINT(bugprone-empty-catch)
    }
  }
  cancel_.store(false);
  running_.store(false);
}

}  // namespace herc::server
