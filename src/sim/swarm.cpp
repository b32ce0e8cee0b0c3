#include "sim/swarm.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "replica/applier.hpp"
#include "replica/shipper.hpp"
#include "schema/standard_schemas.hpp"
#include "server/client.hpp"
#include "server/resilient.hpp"
#include "sim/netfault.hpp"
#include "sim/trace.hpp"
#include "storage/fsck.hpp"
#include "storage/store.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace herc::sim {

namespace {

using Clock = std::chrono::steady_clock;

/// An existing store dictates its schema; a fresh one gets the full
/// standard schema (what `herc serve` defaults to).
schema::TaskSchema store_schema(const std::string& dir) {
  std::optional<schema::TaskSchema> recorded = storage::recorded_schema(dir);
  return recorded.has_value() ? std::move(*recorded)
                              : schema::make_full_schema();
}

/// The entities swarm traces import into; the heal snapshot scans them.
constexpr const char* kSourceEntities[] = {"EditedNetlist", "DeviceModels",
                                           "Stimuli", "Simulator"};

}  // namespace

// ---- InProcessServer --------------------------------------------------------

InProcessServer::InProcessServer(std::string store_dir, bool replicate)
    : dir_(std::move(store_dir)), replicate_(replicate) {
  restart();
}

InProcessServer::~InProcessServer() {
  if (running_) stop();
}

void InProcessServer::stop() {
  if (!running_) return;
  server_->stop();
  server_.reset();
  // The shipper's journal tap points into the session's store: detach
  // (destroy) it before the store goes away.
  shipper_.reset();
  session_->close_storage();
  session_.reset();
  running_ = false;
}

void InProcessServer::restart() {
  session_ = std::make_unique<core::DesignSession>(store_schema(dir_));
  (void)session_->open_storage(dir_);
  server_ = std::make_unique<server::Server>(*session_);
  if (replicate_) {
    shipper_ = std::make_unique<replica::JournalShipper>(*session_);
    server_->set_replication_hub(shipper_.get());
  }
  endpoint_ = server_->add_listener(server::Endpoint::parse("127.0.0.1:0"));
  server_->start();
  running_ = true;
}

// ---- ChildProcessServer -----------------------------------------------------

ChildProcessServer::ChildProcessServer(std::string herc_binary,
                                       std::string store_dir)
    : binary_(std::move(herc_binary)), dir_(std::move(store_dir)) {
  start();
}

ChildProcessServer::~ChildProcessServer() {
  if (running_) reap(SIGKILL);
}

void ChildProcessServer::start() {
  int fds[2] = {-1, -1};
  if (::pipe(fds) != 0) {
    throw support::NetError("swarm: cannot create the serve pipe");
  }
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw support::NetError("swarm: fork failed");
  }
  if (pid_ == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::dup2(fds[1], STDERR_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execl(binary_.c_str(), binary_.c_str(), "serve", dir_.c_str(),
            "--listen", "127.0.0.1:0", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(fds[1]);
  out_fd_ = fds[0];

  // The child's stdout stays pipe-buffered until `serve` flushes right
  // after `Server::start()`, so once the address line is visible the
  // server is accepting.
  std::string banner;
  std::string address;
  char chunk[512];
  while (address.empty() && banner.size() < (1u << 20)) {
    const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
    if (n <= 0) break;
    banner.append(chunk, static_cast<std::size_t>(n));
    const std::size_t pos = banner.find("listening on ");
    if (pos == std::string::npos) continue;
    const std::size_t eol = banner.find('\n', pos);
    if (eol == std::string::npos) continue;
    address = banner.substr(pos + 13, eol - pos - 13);
  }
  if (address.empty()) {
    reap(SIGKILL);
    throw support::NetError("swarm: '" + binary_ +
                            " serve' never reported a listening address:\n" +
                            banner);
  }
  endpoint_ = server::Endpoint::parse(address);
  drain_ = std::thread([fd = out_fd_] {
    char sink[4096];
    while (::read(fd, sink, sizeof sink) > 0) {
    }
  });
  running_ = true;
}

void ChildProcessServer::reap(int signal) {
  if (pid_ > 0) {
    if (signal != 0) ::kill(pid_, signal);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }
  if (drain_.joinable()) drain_.join();
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
  running_ = false;
}

void ChildProcessServer::stop() {
  if (running_) reap(SIGTERM);
}

bool ChildProcessServer::kill() {
  if (running_) reap(SIGKILL);
  return true;
}

void ChildProcessServer::restart() { start(); }

// ---- heal_store -------------------------------------------------------------

HealReport heal_store(const std::string& dir) {
  HealReport report;
  try {
    const storage::FsckReport before = storage::fsck_store(dir);
    report.fsck_before = before.exit_code();
    if (report.fsck_before == 2) {
      const storage::FsckReport fixed =
          storage::fsck_store(dir, {.repair = true});
      report.repaired = true;
      if (fixed.exit_code() == 2) {
        report.error = "fsck --repair left corruption:\n" + fixed.render();
        return report;
      }
    }

    {
      core::DesignSession session(store_schema(dir));
      (void)session.open_storage(dir);

      std::vector<std::uint64_t> open_ids;
      for (const history::RunRecord* run : session.db().open_runs()) {
        open_ids.push_back(run->id);
      }
      for (const std::uint64_t id : open_ids) {
        try {
          const exec::ExecResult result = session.resume_run(id);
          ++report.runs_resumed;
          if (result.tasks_failed > 0 || result.tasks_skipped > 0) {
            ++report.resumes_incomplete;
          }
        } catch (const std::exception& e) {
          if (report.error.empty()) {
            report.error =
                "resume of run " + std::to_string(id) + " failed: " + e.what();
          }
        }
      }
      const std::size_t still_open = session.db().open_runs().size();
      if (still_open != 0 && report.error.empty()) {
        report.error =
            std::to_string(still_open) + " run(s) still open after resume";
      }

      for (const char* entity : kSourceEntities) {
        try {
          for (const core::BrowserRow& row : session.browse(entity).rows()) {
            if (is_swarm_name(row.name)) {
              report.survivors.insert(row.name);
              ++report.survivor_counts[row.name];
            }
          }
        } catch (const std::exception&) {
          // Entity absent from a custom schema: nothing to snapshot there.
        }
      }
      session.close_storage();
    }

    const storage::FsckReport after = storage::fsck_store(dir);
    report.fsck_after = after.exit_code();
    if (report.fsck_after != 0 && report.error.empty()) {
      report.error = "store not clean after heal:\n" + after.render();
    }
  } catch (const std::exception& e) {
    if (report.error.empty()) report.error = e.what();
  }
  return report;
}

// ---- the driver -------------------------------------------------------------

namespace {

/// What the verifier knows about one simulated designer.
struct ClientLog {
  std::mutex mutex;
  /// Tracked import names per round, in issue order (recorded *before*
  /// the send, so it is a superset of what the server executed).
  std::vector<std::vector<std::string>> issued;
  /// Tracked imports whose ack arrived.  After a SIGKILL heal, names the
  /// crash provably lost are reconciled away.
  std::set<std::string> acked;
  /// Issue/ack counts per import *name* (version re-imports issue the
  /// same name again).  A retry inside the resilient client reuses its
  /// token and is NOT a second issue — so `survivor_counts[name] >
  /// issued_counts[name]` can only mean a duplicate apply: the
  /// exactly-once invariant broke.
  std::map<std::string, std::size_t> issued_counts;
  std::map<std::string, std::size_t> acked_counts;
};

struct SwarmShared {
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t ready = 0;
  bool go = false;
  /// Atomic so the resilient clients' backoff sleeps can poll it without
  /// the mutex; always *written* under the mutex before notifying.
  std::atomic<bool> abort{false};
  bool server_up = true;
  /// The swarm seed (jitter seeds for the resilient clients derive from
  /// it so runs stay reproducible).
  std::uint64_t seed = 0;
  server::Endpoint endpoint;
  /// Live follower endpoints; reader clients pin to index % size.  Empty
  /// when no followers run (readers then fall back to the leader).
  std::vector<server::Endpoint> follower_endpoints;

  std::atomic<std::size_t> ops_acked{0};
  std::atomic<std::size_t> errors_tolerated{0};
  std::atomic<std::size_t> clients_done{0};
  server::LatencyHistogram latency;

  std::mutex violations_mutex;
  std::vector<std::string> violations;

  void violation(std::string what) {
    const std::lock_guard<std::mutex> lock(violations_mutex);
    if (violations.size() < 100) violations.push_back(std::move(what));
  }
};

/// Expands `{iK}` placeholders from the round's acked import ids.  False
/// when a referenced import never acked (its round is abandoned).
bool substitute(const std::string& line, const std::vector<std::string>& ids,
                std::string& out) {
  out.clear();
  out.reserve(line.size());
  for (std::size_t i = 0; i < line.size();) {
    if (line[i] == '{' && i + 2 < line.size() && line[i + 1] == 'i') {
      std::size_t j = i + 2;
      std::size_t k = 0;
      bool digits = false;
      while (j < line.size() &&
             std::isdigit(static_cast<unsigned char>(line[j])) != 0) {
        k = k * 10 + static_cast<std::size_t>(line[j] - '0');
        ++j;
        digits = true;
      }
      if (digits && j < line.size() && line[j] == '}') {
        if (k >= ids.size()) return false;
        out += ids[k];
        i = j + 1;
        continue;
      }
    }
    out += line[i++];
  }
  return true;
}

/// The `iN` id out of an `imported iN (...)` ack; empty for other replies.
std::string parse_import_id(const std::string& output) {
  static constexpr char kPrefix[] = "imported i";
  static constexpr std::size_t kPrefixLen = sizeof kPrefix - 1;
  if (output.rfind(kPrefix, 0) != 0) return {};
  std::string id = "i";
  std::size_t j = kPrefixLen;
  while (j < output.size() &&
         std::isdigit(static_cast<unsigned char>(output[j])) != 0) {
    id += output[j++];
  }
  return id.size() > 1 ? id : std::string{};
}

/// Errors any op may report when a stop lands on it: the queued-command
/// refusal and the cooperative run cancellation.
bool is_shutdown_error(const std::string& error) {
  return error.find("shutting down") != std::string::npos ||
         error.find("shutdown") != std::string::npos ||
         error.find("cancelled") != std::string::npos;
}

void run_client(const TraceClient& tc, ClientLog& log, SwarmShared& shared) {
  // One resilient client per designer for the whole run: the idempotency
  // identity (client id + monotone seq) must persist across rounds and
  // reconnects, or a retry could not be recognized as a duplicate.
  server::ResilientOptions ropts;
  ropts.client_id = "swc" + std::to_string(tc.index);
  ropts.seed = shared.seed * 2654435761ULL + tc.index + 1;
  ropts.connect_timeout_ms = 2'000;
  ropts.read_timeout_ms = 60'000;
  ropts.max_attempts = 6;
  ropts.backoff_base_ms = 25;
  ropts.backoff_cap_ms = 1'000;
  server::Endpoint initial;
  {
    const std::lock_guard<std::mutex> lock(shared.mutex);
    initial = shared.endpoint;
  }
  server::ResilientClient client(initial, ropts);
  client.set_abort(&shared.abort);

  auto ensure_connected = [&]() -> bool {
    if (client.connected()) return true;
    const auto deadline = Clock::now() + std::chrono::seconds(120);
    while (Clock::now() < deadline) {
      server::Endpoint ep;
      std::vector<server::Endpoint> failover;
      {
        std::unique_lock<std::mutex> lock(shared.mutex);
        shared.cv.wait_for(lock, std::chrono::milliseconds(100), [&] {
          return shared.server_up || shared.abort.load();
        });
        if (shared.abort.load()) return false;
        if (!shared.server_up) continue;
        // Read-only clients pin to a follower replica when a fleet runs,
        // with the rest of the fleet (and the leader, last) as read
        // failover; everyone else talks to the leader only — a write must
        // never be answered by anyone without the dedup window.
        if (tc.reader && !shared.follower_endpoints.empty()) {
          ep = shared.follower_endpoints[tc.index %
                                         shared.follower_endpoints.size()];
          failover = shared.follower_endpoints;
          failover.push_back(shared.endpoint);
        } else {
          ep = shared.endpoint;
        }
      }
      client.set_endpoints(ep, std::move(failover));
      try {
        if (client.call("session user " + tc.user).ok()) return true;
        client.close();
      } catch (const support::NetError&) {
        client.abandon_pending();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    shared.violation("client " + tc.user + ": could not (re)connect in 120s");
    return false;
  };

  // Warm the connection before the timed window opens: connect cost and
  // first-command cold paths must not pollute the latency percentiles.
  if (ensure_connected()) {
    try {
      (void)client.call("echo warm");
    } catch (const support::NetError&) {
      client.abandon_pending();
    }
  }
  {
    std::unique_lock<std::mutex> lock(shared.mutex);
    ++shared.ready;
    shared.cv.notify_all();
    shared.cv.wait(lock, [&] { return shared.go; });
  }

  for (std::size_t ri = 0; ri < tc.rounds.size(); ++ri) {
    if (shared.abort.load()) break;
    if (!ensure_connected()) break;
    const TraceRound& round = tc.rounds[ri];
    // The round's workspace (flows, plans) lives on this connection: if
    // the generation moves, a reconnect replaced it and the rest of the
    // round is abandoned, exactly like a torn connection used to be.
    const std::uint64_t round_generation = client.generation();
    std::vector<std::string> ids;
    for (const TraceOp& op : round.ops) {
      std::string line;
      if (!substitute(op.line, ids, line)) break;
      if (!op.import_name.empty()) {
        const std::lock_guard<std::mutex> lock(log.mutex);
        if (op.tracked_import) log.issued[ri].push_back(op.import_name);
        ++log.issued_counts[op.import_name];
      }
      server::CallResult result;
      const auto t0 = Clock::now();
      try {
        result = client.call(line, op.body);
      } catch (const support::NetError&) {
        // Retries exhausted or the outcome became unknown (restart):
        // abandon the round; the next one reconnects.
        client.abandon_pending();
        break;
      }
      shared.latency.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                t0)
              .count()));
      // A moved generation means the call crossed a reconnect: the
      // round's workspace died with the old connection, so the rest of
      // the round is abandoned — and an error from this op (e.g. a flow
      // that no longer exists) is that loss, not a violation.
      const bool reconnected = client.generation() != round_generation;
      if (result.ok()) {
        shared.ops_acked.fetch_add(1, std::memory_order_relaxed);
        const std::string id = parse_import_id(result.output);
        if (!id.empty()) ids.push_back(id);
        if (!op.import_name.empty()) {
          const std::lock_guard<std::mutex> lock(log.mutex);
          if (op.tracked_import) log.acked.insert(op.import_name);
          ++log.acked_counts[op.import_name];
        }
        if (reconnected) break;
      } else if (reconnected) {
        break;  // the workspace died with the old connection
      } else if (is_shutdown_error(result.error)) {
        client.close();
        break;
      } else if (op.may_fail) {
        shared.errors_tolerated.fetch_add(1, std::memory_order_relaxed);
      } else {
        shared.violation("client " + tc.user + " round " + std::to_string(ri) +
                         ": '" + line + "' failed: " + result.error);
        break;
      }
    }
  }
  client.close();
  shared.clients_done.fetch_add(1);
  shared.cv.notify_all();
}

/// The in-memory half of the invariant chain, applied to every heal
/// snapshot.  `graceful` distinguishes SIGTERM (every ack must survive)
/// from SIGKILL (an unflushed tail may be lost — but only as a *suffix*
/// of each round's issue order, and never anything a prior heal saw).
void verify_history(const Trace& trace,
                    std::vector<std::unique_ptr<ClientLog>>& logs,
                    const HealReport& heal, bool graceful,
                    const std::set<std::string>& prev_survivors,
                    SwarmShared& shared) {
  const std::set<std::string>& survivors = heal.survivors;
  for (const std::string& name : prev_survivors) {
    if (survivors.count(name) == 0) {
      shared.violation("import '" + name +
                       "' survived an earlier heal but vanished from this one");
    }
  }
  std::set<std::string> issued_all;
  for (std::size_t ci = 0; ci < trace.clients.size(); ++ci) {
    ClientLog& log = *logs[ci];
    const std::lock_guard<std::mutex> lock(log.mutex);
    for (const std::vector<std::string>& round : log.issued) {
      bool cut = false;
      for (const std::string& name : round) {
        issued_all.insert(name);
        const bool alive = survivors.count(name) != 0;
        if (alive && cut) {
          shared.violation(
              "non-prefix survival: '" + name +
              "' survives although an earlier import of its round was lost");
        }
        if (!alive) cut = true;
      }
    }
    if (graceful) {
      for (const std::string& name : log.acked) {
        if (survivors.count(name) == 0) {
          shared.violation("acked import '" + name +
                           "' missing after a graceful stop");
        }
      }
    } else {
      // A SIGKILL may legitimately cut acked-but-unflushed imports;
      // reconcile so later graceful checks reason from surviving facts.
      for (auto it = log.acked.begin(); it != log.acked.end();) {
        it = survivors.count(*it) == 0 ? log.acked.erase(it) : std::next(it);
      }
    }
    // Exactly-once, per name and per *instance count*: retried commands
    // are deduplicated by token, so the store can never hold more
    // instances of a name than the client issued import commands — a
    // surplus is a duplicate apply, the invariant --net-chaos exists to
    // break.  Gracefully stopped, every acked issue must also be there.
    for (const auto& [name, issued_n] : log.issued_counts) {
      const auto found = heal.survivor_counts.find(name);
      const std::size_t alive_n =
          found == heal.survivor_counts.end() ? 0 : found->second;
      if (alive_n > issued_n) {
        shared.violation("exactly-once broken: '" + name + "' has " +
                         std::to_string(alive_n) + " instance(s) but only " +
                         std::to_string(issued_n) +
                         " import(s) were ever issued");
      }
      const auto acked_it = log.acked_counts.find(name);
      if (acked_it == log.acked_counts.end()) continue;
      if (graceful) {
        if (alive_n < acked_it->second) {
          shared.violation("'" + name + "' acked " +
                           std::to_string(acked_it->second) +
                           " time(s) but only " + std::to_string(alive_n) +
                           " instance(s) survive a graceful stop");
        }
      } else if (acked_it->second > alive_n) {
        acked_it->second = alive_n;  // the crash provably cut the rest
      }
    }
  }
  for (const std::string& name : survivors) {
    if (issued_all.count(name) == 0) {
      shared.violation("survivor '" + name +
                       "' was never issued by any client");
    }
  }
}

/// The wire half: after a restart, browse the store through a fresh
/// connection and check the query results agree with the heal snapshot
/// for a few sampled designers.
void verify_queries(const Trace& trace, const std::set<std::string>& survivors,
                    SwarmShared& shared) {
  server::Endpoint ep;
  {
    const std::lock_guard<std::mutex> lock(shared.mutex);
    ep = shared.endpoint;
  }
  try {
    server::Client probe;
    for (int attempt = 0;; ++attempt) {
      try {
        probe = server::Client::connect(ep);
        break;
      } catch (const support::NetError&) {
        if (attempt >= 20) throw;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    }
    std::size_t checked = 0;
    for (std::size_t ci = 0; ci < trace.clients.size() && checked < 3; ++ci) {
      std::vector<const std::string*> mine;
      for (const std::string& name : survivors) {
        if (swarm_name_client(name) == ci) mine.push_back(&name);
      }
      if (mine.empty()) continue;
      ++checked;
      const std::string& user = trace.clients[ci].user;
      std::string view;
      for (const char* entity : kSourceEntities) {
        const server::CallResult r =
            probe.call(std::string("browse ") + entity + " user=" + user);
        if (!r.ok()) {
          shared.violation("post-restart browse " + std::string(entity) +
                           " failed for " + user + ": " + r.error);
          continue;
        }
        view += r.output;
      }
      for (const std::string* name : mine) {
        if (view.find(*name) == std::string::npos) {
          shared.violation("surviving import '" + *name +
                           "' missing from post-restart browse for " + user);
        }
      }
      // Everything swarm-shaped the browser shows must be a known
      // survivor — queries may not resurrect lost or foreign data.
      for (std::size_t pos = view.find("sw_c"); pos != std::string::npos;
           pos = view.find("sw_c", pos + 1)) {
        std::size_t end = pos;
        while (end < view.size() &&
               (std::isalnum(static_cast<unsigned char>(view[end])) != 0 ||
                view[end] == '_')) {
          ++end;
        }
        const std::string token = view.substr(pos, end - pos);
        if (is_swarm_name(token) && swarm_name_client(token) == ci &&
            survivors.count(token) == 0) {
          shared.violation("post-restart browse shows '" + token +
                           "' which no heal observed");
        }
      }
    }
    probe.close();
  } catch (const std::exception& e) {
    shared.violation(std::string("post-restart query verification failed: ") +
                     e.what());
  }
}

/// A "fault" chaos event: a dedicated chaos client runs a fault-seeded
/// flow mid-load and asserts the server absorbs it — the run's failure is
/// tolerated, the failure records are queryable, the server stays
/// responsive.  No stop, no heal: the store stays live.
void fire_fault_event(std::size_t index, std::uint64_t fault_seed,
                      SwarmShared& shared) {
  server::Endpoint ep;
  {
    const std::lock_guard<std::mutex> lock(shared.mutex);
    ep = shared.endpoint;
  }
  const std::string stem = "cz" + std::to_string(index);
  const TraceRound round =
      make_fault_round(stem, "fcz" + std::to_string(index), fault_seed | 1);
  try {
    server::Client chaos = server::Client::connect(ep);
    (void)chaos.call("session user chaos");
    std::vector<std::string> ids;
    for (const TraceOp& op : round.ops) {
      std::string line;
      if (!substitute(op.line, ids, line)) break;
      const server::CallResult r = chaos.call(line, op.body);
      if (r.ok()) {
        const std::string id = parse_import_id(r.output);
        if (!id.empty()) ids.push_back(id);
      } else if (!op.may_fail && !is_shutdown_error(r.error)) {
        shared.violation("chaos fault client: '" + line +
                         "' failed: " + r.error);
      }
    }
    if (!chaos.call("echo alive").ok()) {
      shared.violation("server unresponsive after a fault-seeded run");
    }
    chaos.close();
  } catch (const std::exception& e) {
    shared.violation(std::string("chaos fault event failed: ") + e.what());
  }
}

// ---- the follower fleet (replicas profile) ----------------------------------

/// The in-process read-replica fleet: each follower is `herc serve
/// --replicate-from` in miniature — a `ReplicaApplier` over the store
/// `<leader-dir>_f<i>` feeding a read-only `Server`.  Follower stores
/// persist across fleet restarts, so every post-chaos `start` exercises
/// the real local-recovery + resync path, including the epoch fence when
/// a heal checkpointed the leader.
class FollowerFleet {
 public:
  FollowerFleet(std::string leader_dir, std::size_t count)
      : base_(std::move(leader_dir)), count_(count) {}
  ~FollowerFleet() { stop(); }

  /// Starts every follower against `leader`.  A follower that cannot
  /// bootstrap is dropped with a violation; the fleet runs with whoever
  /// made it up.
  void start(const server::Endpoint& leader, SwarmShared& shared) {
    stop();
    for (std::size_t i = 0; i < count_; ++i) {
      auto f = std::make_unique<Follower>();
      f->dir = base_ + "_f" + std::to_string(i);
      try {
        f->applier =
            std::make_unique<replica::ReplicaApplier>(leader, f->dir);
        if (!f->applier->bootstrap(/*attempts=*/50)) {
          shared.violation("follower " + std::to_string(i) +
                           ": bootstrap failed: " +
                           f->applier->last_error());
          continue;
        }
        f->session =
            std::make_unique<core::DesignSession>(f->applier->schema());
        f->session->attach_replica(&f->applier->store());
        server::ServeOptions serve_options;
        serve_options.read_only = true;
        f->server =
            std::make_unique<server::Server>(*f->session, serve_options);
        replica::ReplicaApplier& applier = *f->applier;
        f->server->set_position_source([&applier] {
          const replica::StreamPosition pos = applier.position();
          return server::JournalPosition{pos.epoch, pos.seq,
                                         applier.journal_bytes(), {}};
        });
        server::Server& server = *f->server;
        f->applier->set_gate([&server](const std::function<void()>& fn) {
          server.with_exclusive_session(fn);
        });
        f->endpoint =
            f->server->add_listener(server::Endpoint::parse("127.0.0.1:0"));
        f->server->start();
        f->applier->start();
        fleet_.push_back(std::move(f));
      } catch (const std::exception& e) {
        shared.violation("follower " + std::to_string(i) +
                         ": start failed: " + e.what());
      }
    }
  }

  /// Graceful wind-down (stream thread first, then the server), leaving
  /// the replica stores on disk for fsck and the next start.
  void stop() {
    for (std::unique_ptr<Follower>& f : fleet_) {
      if (f->applier != nullptr) f->applier->stop();
      if (f->server != nullptr) f->server->stop();
    }
    fleet_.clear();
  }

  [[nodiscard]] std::vector<server::Endpoint> endpoints() const {
    std::vector<server::Endpoint> eps;
    for (const std::unique_ptr<Follower>& f : fleet_) {
      eps.push_back(f->endpoint);
    }
    return eps;
  }

  [[nodiscard]] std::size_t size() const { return fleet_.size(); }

  /// Offline fsck of every follower store (call with the fleet stopped):
  /// a replica store must audit clean after any stop, `when` names the
  /// moment for the violation message.
  void fsck_stores(SwarmShared& shared, const std::string& when) const {
    for (std::size_t i = 0; i < count_; ++i) {
      const std::string dir = base_ + "_f" + std::to_string(i);
      if (::access(dir.c_str(), F_OK) != 0) continue;
      try {
        const storage::FsckReport report = storage::fsck_store(dir);
        if (report.exit_code() != 0) {
          shared.violation("follower store '" + dir + "' fsck exit " +
                           std::to_string(report.exit_code()) + " " + when +
                           ":\n" + report.render());
        }
      } catch (const std::exception& e) {
        shared.violation("follower store '" + dir + "' fsck failed " + when +
                         ": " + e.what());
      }
    }
  }

  /// The read-your-epoch check: imports a sentinel on the leader, then
  /// requires every follower's read path to serve it.  Proves the
  /// current leader epoch's frames cross the fence to every replica —
  /// after a heal that checkpointed, that is exactly "reads reflect the
  /// new epoch".  Returns elapsed ms, -1 on failure (violations filed).
  double await_read_your_epoch(const server::Endpoint& leader,
                               std::size_t event_index, SwarmShared& shared,
                               const std::set<std::string>& survivors) {
    const auto t0 = Clock::now();
    const std::string sentinel = "rye_" + std::to_string(event_index);
    try {
      server::Client writer = server::Client::connect(leader);
      (void)writer.call("session user chaos");
      const server::CallResult r = writer.call(
          "import Stimuli " + sentinel, "stimuli sw\nwave in 0:0 10:1 20:0\n");
      if (!r.ok()) {
        shared.violation("read-your-epoch: sentinel import '" + sentinel +
                         "' failed: " + r.error);
        writer.close();
        return -1.0;
      }
      writer.close();
    } catch (const std::exception& e) {
      shared.violation(
          std::string("read-your-epoch: cannot reach the leader: ") +
          e.what());
      return -1.0;
    }

    bool all_caught_up = true;
    for (std::size_t i = 0; i < fleet_.size(); ++i) {
      Follower& f = *fleet_[i];
      const auto deadline = Clock::now() + std::chrono::seconds(30);
      bool seen = false;
      std::string view;
      while (!seen && Clock::now() < deadline) {
        try {
          server::Client probe = server::Client::connect(f.endpoint);
          const server::CallResult r = probe.call("browse Stimuli");
          probe.close();
          if (r.ok()) {
            view = r.output;
            seen = view.find(sentinel) != std::string::npos;
          }
        } catch (const support::NetError&) {
        }
        if (!seen) std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      if (!seen) {
        const replica::StreamPosition pos = f.applier->position();
        const std::string stream_error = f.applier->last_error();
        // The leader's own follower table places the stall: a follower
        // missing there never (re)subscribed; one present with lag shows
        // a shipped frame that vanished in transit.
        std::string leader_view = "unreachable";
        try {
          server::Client peek = server::Client::connect(leader);
          const server::CallResult r = peek.call("replicas");
          if (r.ok()) leader_view = r.output;
          peek.close();
        } catch (const std::exception&) {
        }
        shared.violation(
            "follower " + std::to_string(i) + " never served sentinel '" +
            sentinel + "' within 30s (position " + std::to_string(pos.epoch) +
            ":" + std::to_string(pos.seq) + ", stream " +
            f.applier->stream_state() +
            (stream_error.empty() ? std::string("")
                                  : "; last stream error: " + stream_error) +
            "; leader view: " + leader_view + ")");
        all_caught_up = false;
        continue;
      }
      // Caught up: the survivors the heal certified must be readable
      // through this replica too (sampled, same cap as verify_queries).
      std::size_t checked = 0;
      for (const std::string& name : survivors) {
        if (checked >= 5) break;
        ++checked;
        try {
          server::Client probe = server::Client::connect(f.endpoint);
          bool found = false;
          for (const char* entity : kSourceEntities) {
            const server::CallResult r =
                probe.call(std::string("browse ") + entity);
            if (r.ok() && r.output.find(name) != std::string::npos) {
              found = true;
              break;
            }
          }
          probe.close();
          if (!found) {
            shared.violation("surviving import '" + name +
                             "' missing from follower " + std::to_string(i) +
                             " after catch-up");
          }
        } catch (const std::exception& e) {
          shared.violation("follower " + std::to_string(i) +
                           " survivor check failed: " + e.what());
          break;
        }
      }
    }
    if (!all_caught_up) return -1.0;
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
  }

 private:
  struct Follower {
    std::string dir;
    std::unique_ptr<replica::ReplicaApplier> applier;
    std::unique_ptr<core::DesignSession> session;
    std::unique_ptr<server::Server> server;
    server::Endpoint endpoint;
  };

  std::string base_;
  std::size_t count_;
  std::vector<std::unique_ptr<Follower>> fleet_;
};

}  // namespace

// ---- SwarmReport ------------------------------------------------------------

bool SwarmReport::ok() const {
  if (!violations.empty()) return false;
  for (const ChaosRecord& event : events) {
    // Only crash events heal the store; fault and net-* events leave the
    // server running, so their fsck fields stay at the -1 sentinel.
    if (event.kind == "fault" || event.kind.rfind("net-", 0) == 0) continue;
    if (event.fsck_after != 0) return false;
  }
  return true;
}

std::string SwarmReport::render_text() const {
  std::ostringstream out;
  out << "swarm: profile=" << profile << " clients=" << clients
      << " rounds=" << rounds << " seed=" << seed << "\n";
  out << "  ops acked " << ops_acked << " in " << static_cast<long>(wall_ms)
      << "ms (" << static_cast<long>(qps) << " qps), " << errors_tolerated
      << " tolerated error(s)\n";
  out << "  latency p50 " << p50_us << "us p95 " << p95_us << "us p99 "
      << p99_us << "us\n";
  out << "  chaos events " << events.size() << ", runs resumed "
      << runs_resumed_total << ", final survivors " << final_survivors << "\n";
  if (followers > 0) out << "  followers " << followers << "\n";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ChaosRecord& e = events[i];
    out << "  event " << (i + 1) << ": " << e.kind << " at " << e.at_ops
        << " ops";
    if (e.kind != "fault" && e.kind.rfind("net-", 0) != 0) {
      out << " (fsck " << e.fsck_before << (e.repaired ? " repaired" : "")
          << " -> heal -> " << e.fsck_after << ", " << e.runs_resumed
          << " resumed, " << e.survivors << " survivors";
      if (e.catchup_ms >= 0.0) {
        out << ", replicas caught up in " << static_cast<long>(e.catchup_ms)
            << "ms";
      }
      out << ")";
    }
    out << "\n";
  }
  if (violations.empty()) {
    out << "  invariants: OK\n";
  } else {
    out << "  VIOLATIONS (" << violations.size() << "):\n";
    for (const std::string& v : violations) out << "    - " << v << "\n";
  }
  return out.str();
}

std::string SwarmReport::render_json() const {
  std::ostringstream out;
  out << "{\n";
  out << "  \"profile\": \"" << support::json_escape(profile) << "\",\n";
  out << "  \"clients\": " << clients << ",\n";
  out << "  \"rounds\": " << rounds << ",\n";
  out << "  \"seed\": " << seed << ",\n";
  out << "  \"ops_acked\": " << ops_acked << ",\n";
  out << "  \"errors_tolerated\": " << errors_tolerated << ",\n";
  out << "  \"wall_ms\": " << wall_ms << ",\n";
  out << "  \"qps\": " << qps << ",\n";
  out << "  \"p50_us\": " << p50_us << ",\n";
  out << "  \"p95_us\": " << p95_us << ",\n";
  out << "  \"p99_us\": " << p99_us << ",\n";
  out << "  \"runs_resumed\": " << runs_resumed_total << ",\n";
  out << "  \"final_survivors\": " << final_survivors << ",\n";
  out << "  \"followers\": " << followers << ",\n";
  out << "  \"events\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ChaosRecord& e = events[i];
    out << (i == 0 ? "" : ",") << "\n    {\"kind\": \"" << e.kind
        << "\", \"at_ops\": " << e.at_ops
        << ", \"fsck_before\": " << e.fsck_before << ", \"repaired\": "
        << (e.repaired ? "true" : "false")
        << ", \"runs_resumed\": " << e.runs_resumed
        << ", \"fsck_after\": " << e.fsck_after
        << ", \"survivors\": " << e.survivors
        << ", \"catchup_ms\": " << e.catchup_ms << "}";
  }
  out << (events.empty() ? "" : "\n  ") << "],\n";
  out << "  \"violations\": [";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    out << (i == 0 ? "" : ",") << "\n    \"" << support::json_escape(violations[i])
        << "\"";
  }
  out << (violations.empty() ? "" : "\n  ") << "],\n";
  out << "  \"ok\": " << (ok() ? "true" : "false") << "\n";
  out << "}\n";
  return out.str();
}

// ---- run_swarm --------------------------------------------------------------

SwarmReport run_swarm(ServerControl& control, const SwarmOptions& options) {
  SwarmReport report;
  report.profile = options.profile;
  report.clients = options.clients;
  report.rounds = options.rounds;
  report.seed = options.seed;

  const Trace trace =
      make_trace(options.profile, options.clients, options.rounds,
                 options.seed);
  const std::size_t total = trace.total_ops();

  SwarmShared shared;
  shared.seed = options.seed;

  // Net chaos: every connection — clients AND follower appliers — goes
  // through the fault proxy, so a network event hits the whole topology.
  // The proxy's front endpoint is stable across server restarts; only
  // its target moves.
  std::unique_ptr<FaultProxy> proxy;
  if (options.net_chaos) {
    proxy = std::make_unique<FaultProxy>(control.endpoint());
    if (options.log != nullptr) {
      *options.log << "swarm: net chaos proxy on "
                   << proxy->endpoint().describe() << " -> "
                   << control.endpoint().describe() << std::endl;
    }
  }
  const auto effective_endpoint = [&]() -> server::Endpoint {
    return proxy != nullptr ? proxy->endpoint() : control.endpoint();
  };
  shared.endpoint = effective_endpoint();

  // The follower fleet (replicas profile) comes up before any client
  // connects, so reader pinning is in place for the warmup barrier, and
  // proves replication live (read-your-epoch) before the clock starts.
  std::unique_ptr<FollowerFleet> fleet;
  std::size_t sentinel = 0;
  if (options.followers > 0) {
    fleet = std::make_unique<FollowerFleet>(control.store_dir(),
                                            options.followers);
    fleet->start(effective_endpoint(), shared);
    shared.follower_endpoints = fleet->endpoints();
    if (options.log != nullptr) {
      *options.log << "swarm: " << fleet->size() << "/" << options.followers
                   << " follower(s) up" << std::endl;
    }
    (void)fleet->await_read_your_epoch(effective_endpoint(), sentinel++,
                                       shared, {});
  }
  report.followers = fleet != nullptr ? fleet->size() : 0;

  std::vector<std::unique_ptr<ClientLog>> logs;
  logs.reserve(trace.clients.size());
  for (std::size_t ci = 0; ci < trace.clients.size(); ++ci) {
    logs.push_back(std::make_unique<ClientLog>());
    logs.back()->issued.resize(options.rounds);
  }

  std::vector<std::thread> threads;
  threads.reserve(trace.clients.size());
  for (std::size_t ci = 0; ci < trace.clients.size(); ++ci) {
    threads.emplace_back(run_client, std::cref(trace.clients[ci]),
                         std::ref(*logs[ci]), std::ref(shared));
  }

  // Warmup barrier: every client connected and warmed before the clock
  // starts, so percentiles measure steady-state service time.
  {
    std::unique_lock<std::mutex> lock(shared.mutex);
    shared.cv.wait(lock,
                   [&] { return shared.ready >= trace.clients.size(); });
    shared.go = true;
    shared.cv.notify_all();
  }
  if (options.log != nullptr) {
    *options.log << "swarm: " << trace.clients.size() << " client(s) warm, "
                 << total << " ops queued" << std::endl;
  }
  const auto t_start = Clock::now();

  std::set<std::string> prev_survivors;
  // With net chaos the cycle interleaves network faults between the
  // process-level events, so reconnect/replay paths are exercised both
  // against a live server (pure network failure) and across restarts.
  static constexpr const char* kKinds[] = {"fault", "sigterm", "sigkill"};
  static constexpr const char* kNetKinds[] = {
      "net-drop",      "sigkill", "net-delay",     "sigterm",
      "net-partition", "fault",   "net-halfclose", "sigkill"};
  for (std::size_t e = 0; e < options.chaos; ++e) {
    const std::size_t threshold = total * (e + 1) / (options.chaos + 1);
    while (shared.ops_acked.load() < threshold &&
           shared.clients_done.load() < trace.clients.size()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::string kind = options.net_chaos ? kNetKinds[e % 8] : kKinds[e % 3];
    if (kind == std::string("sigkill") && !options.allow_kill) {
      kind = "sigterm";
    }
    ChaosRecord record;
    record.at_ops = shared.ops_acked.load();
    if (options.log != nullptr) {
      *options.log << "swarm: chaos " << (e + 1) << "/" << options.chaos
                   << " (" << kind << ") at " << record.at_ops << " ops"
                   << std::endl;
    }
    if (kind == "fault") {
      record.kind = "fault";
      fire_fault_event(e, options.seed + e, shared);
    } else if (kind.rfind("net-", 0) == 0) {
      // Network event: the server stays up and the store stays live — no
      // heal, no fsck.  Inject, let the load grind against it, heal the
      // network, then demand the service is still reachable end to end.
      record.kind = kind;
      if (kind == "net-delay") {
        proxy->set_delay_ms(25);
        std::this_thread::sleep_for(std::chrono::milliseconds(800));
      } else if (kind == "net-drop") {
        proxy->set_drop_after(1'024 + (options.seed + e * 977) % 4'096);
        std::this_thread::sleep_for(std::chrono::milliseconds(800));
      } else if (kind == "net-halfclose") {
        proxy->half_close_live();
        std::this_thread::sleep_for(std::chrono::milliseconds(300));
      } else {  // net-partition
        proxy->partition();
        std::this_thread::sleep_for(std::chrono::milliseconds(600));
      }
      proxy->heal();
      try {
        server::ResilientOptions popts;
        popts.client_id = "swprobe" + std::to_string(e);
        popts.seed = options.seed + e + 1;
        popts.max_attempts = 10;
        server::ResilientClient probe(effective_endpoint(), popts);
        probe.set_abort(&shared.abort);
        if (!probe.call("echo alive").ok()) {
          shared.violation("server unresponsive after " + kind);
        }
        probe.close();
      } catch (const std::exception& ex) {
        shared.violation("server unreachable after " + kind + ": " +
                         ex.what());
      }
      if (options.log != nullptr) {
        *options.log << "swarm:   network healed, "
                     << proxy->connections_cut() << " connection(s) cut, "
                     << proxy->connections_proxied() << " proxied so far"
                     << std::endl;
      }
    } else {
      {
        const std::lock_guard<std::mutex> lock(shared.mutex);
        shared.server_up = false;
      }
      if (kind == "sigkill" && !control.kill()) kind = "sigterm";
      if (kind == "sigterm") control.stop();
      record.kind = kind;

      // Wind the fleet down before the heal: the follower stores go
      // quiescent (their own fsck must pass) and nobody streams from a
      // store the heal is about to mutate.
      if (fleet != nullptr) {
        fleet->stop();
        {
          const std::lock_guard<std::mutex> lock(shared.mutex);
          shared.follower_endpoints.clear();
        }
        fleet->fsck_stores(shared, "after chaos " + std::to_string(e + 1));
      }

      const HealReport heal = heal_store(control.store_dir());
      record.fsck_before = heal.fsck_before;
      record.repaired = heal.repaired;
      record.runs_resumed = heal.runs_resumed;
      record.fsck_after = heal.fsck_after;
      record.survivors = heal.survivors.size();
      report.runs_resumed_total += heal.runs_resumed;
      if (!heal.error.empty()) {
        shared.violation("chaos " + std::to_string(e + 1) + " (" + kind +
                         ") heal: " + heal.error);
      }
      verify_history(trace, logs, heal,
                     /*graceful=*/kind != std::string("sigkill"),
                     prev_survivors, shared);
      prev_survivors = heal.survivors;
      if (options.log != nullptr) {
        *options.log << "swarm:   fsck " << heal.fsck_before
                     << (heal.repaired ? " (repaired)" : "") << " -> heal -> "
                     << heal.fsck_after << ", " << heal.runs_resumed
                     << " run(s) resumed, " << heal.survivors.size()
                     << " survivor(s)" << std::endl;
      }

      try {
        control.restart();
        // The restarted server rebinds (ephemeral port): repoint the
        // proxy; its own front endpoint — what everyone dials — stays.
        if (proxy != nullptr) proxy->set_target(control.endpoint());
        {
          const std::lock_guard<std::mutex> lock(shared.mutex);
          shared.endpoint = effective_endpoint();
        }
        // Check queries against the heal snapshot BEFORE releasing the
        // clients: once they reconnect, fresh imports would legitimately
        // diverge from the snapshot.
        verify_queries(trace, prev_survivors, shared);
        // Re-attach the fleet to the restarted leader and require
        // read-your-epoch before any reader reconnects: a replica must
        // never serve a pre-heal view once the new epoch is live.
        if (fleet != nullptr) {
          fleet->start(effective_endpoint(), shared);
          {
            const std::lock_guard<std::mutex> lock(shared.mutex);
            shared.follower_endpoints = fleet->endpoints();
          }
          record.catchup_ms = fleet->await_read_your_epoch(
              effective_endpoint(), sentinel++, shared, prev_survivors);
          if (options.log != nullptr) {
            *options.log << "swarm:   " << fleet->size()
                         << " follower(s) reattached, read-your-epoch in "
                         << static_cast<long>(record.catchup_ms) << "ms"
                         << std::endl;
          }
        }
        {
          const std::lock_guard<std::mutex> lock(shared.mutex);
          shared.server_up = true;
        }
        shared.cv.notify_all();
      } catch (const std::exception& ex) {
        shared.violation("chaos " + std::to_string(e + 1) +
                         ": restart failed: " + ex.what());
        {
          const std::lock_guard<std::mutex> lock(shared.mutex);
          shared.abort = true;
        }
        shared.cv.notify_all();
        report.events.push_back(record);
        break;
      }
    }
    report.events.push_back(record);
  }

  for (std::thread& t : threads) t.join();
  const auto t_end = Clock::now();

  // Final graceful stop: the whole invariant chain one last time, with
  // every client's full history on the table.
  bool server_was_up = false;
  {
    const std::lock_guard<std::mutex> lock(shared.mutex);
    server_was_up = shared.server_up;
    shared.server_up = false;
  }
  // One last read-your-epoch pass with the full load applied, then wind
  // the fleet down and audit every replica store offline.
  if (fleet != nullptr) {
    if (server_was_up && fleet->size() > 0) {
      (void)fleet->await_read_your_epoch(effective_endpoint(), sentinel++,
                                         shared, prev_survivors);
    }
    fleet->stop();
    {
      const std::lock_guard<std::mutex> lock(shared.mutex);
      shared.follower_endpoints.clear();
    }
    fleet->fsck_stores(shared, "at the final stop");
  }
  if (server_was_up) control.stop();
  const HealReport final_heal = heal_store(control.store_dir());
  report.runs_resumed_total += final_heal.runs_resumed;
  report.final_survivors = final_heal.survivors.size();
  if (!final_heal.error.empty()) {
    shared.violation("final heal: " + final_heal.error);
  }
  if (final_heal.fsck_after != 0) {
    shared.violation("final fsck exit " +
                     std::to_string(final_heal.fsck_after));
  }
  verify_history(trace, logs, final_heal, /*graceful=*/true, prev_survivors,
                 shared);
  if (options.log != nullptr) {
    *options.log << "swarm: final heal fsck " << final_heal.fsck_before
                 << " -> " << final_heal.fsck_after << ", "
                 << final_heal.runs_resumed << " run(s) resumed, "
                 << final_heal.survivors.size() << " survivor(s)" << std::endl;
  }

  report.ops_acked = shared.ops_acked.load();
  report.errors_tolerated = shared.errors_tolerated.load();
  report.wall_ms =
      std::chrono::duration<double, std::milli>(t_end - t_start).count();
  report.qps = report.wall_ms > 0.0
                   ? 1000.0 * static_cast<double>(report.ops_acked) /
                         report.wall_ms
                   : 0.0;
  report.p50_us = shared.latency.percentile(0.50);
  report.p95_us = shared.latency.percentile(0.95);
  report.p99_us = shared.latency.percentile(0.99);
  {
    const std::lock_guard<std::mutex> lock(shared.violations_mutex);
    report.violations = shared.violations;
  }
  return report;
}

}  // namespace herc::sim
