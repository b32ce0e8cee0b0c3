// Follower-side replication: applies the leader's journal stream into a
// local replica store and a read-only database.
//
// The replica store is a `storage::DurableHistory` over the same files as
// a leader store, plus a `replica.herc` marker:
//
//   replica base <epoch> <seq> leader <endpoint>
//
// The marker is what distinguishes a follower's store from a leader's: it
// carries the base sequence of the local journal (the snapshot meta line
// cannot — frames 0..base-1 of the epoch are folded into the image, so the
// local journal starts at `base`, not 0), the store skips its crash sweep
// when it sees it, and a leader refuses to open the directory until `herc
// promote` removes it.
//
// Apply discipline is write-ahead, same as the leader: a shipped frame is
// appended to the local journal before it touches the database, so the
// replica store is fsck-clean after a crash at any byte.  A shipment whose
// envelope (replication.hpp) fails never gets that far.  The storage epoch
// is the fencing token — `apply_frame` rejects frames from an epoch below
// the replica's (`kFenced`: a demoted ex-leader is talking), and resyncs on
// anything from the future (`kGap`: we missed a checkpoint).
//
// Local recovery (`bootstrap`) replays snapshot + journal WITHOUT the
// leader's crash sweep: open runs in a replica's history are the leader's
// live runs, not evidence of a crash.  `promote_store` is the opposite —
// it runs full leader recovery (seal + quarantine), checkpoints (bumping
// the epoch: the fence that keeps the old leader out), and removes the
// marker, turning the directory into a leader store.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "history/history_db.hpp"
#include "replica/replication.hpp"
#include "schema/task_schema.hpp"
#include "server/protocol.hpp"
#include "server/socket.hpp"
#include "storage/store.hpp"
#include "support/clock.hpp"

namespace herc::replica {

/// What `apply_frame` did with a shipped frame.
enum class ApplyOutcome {
  kApplied,    ///< appended to the local journal and applied
  kDuplicate,  ///< already applied (harmless replay)
  kFenced,     ///< stale epoch: the sender is a demoted ex-leader
  kGap,        ///< ahead of our position: disconnect and resync
};

class ReplicaApplier {
 public:
  /// Binds to the replica store in `dir` (created on first bootstrap),
  /// following the leader at `leader`.
  ReplicaApplier(server::Endpoint leader, std::string dir);
  ~ReplicaApplier();

  ReplicaApplier(const ReplicaApplier&) = delete;
  ReplicaApplier& operator=(const ReplicaApplier&) = delete;

  /// Makes the database available: local recovery from the store first,
  /// then up to `attempts` snapshot fetches from the leader.  Must succeed
  /// before `schema()`/`db()`/`store()` are used (attach to the serving
  /// session) and before `start()`.  Synchronous; returns false when the leader stayed
  /// unreachable (or refused us as fenced).
  [[nodiscard]] bool bootstrap(int attempts = 5);

  /// Starts the streaming thread: subscribe at the current position, apply
  /// frames (through the gate), ack, reconnect forever until `stop`.
  void start();
  void stop();

  /// Installs the gate every database mutation (snapshot install, frame
  /// apply, checkpoint) runs through: the serving server's exclusive-lock
  /// taker, which exists only once the session is built from this
  /// applier's bootstrap.  Call before `start`; without one, they run bare.
  void set_gate(std::function<void(const std::function<void()>&)> gate) {
    gate_ = std::move(gate);
  }

  // ---- the apply path (the stream thread wraps these in the gate; tests
  // ---- call them directly) ---------------------------------------------------

  void install_snapshot(const SnapshotShipment& snapshot);
  [[nodiscard]] ApplyOutcome apply_frame(const JournalShipment& shipment);
  void apply_checkpoint(std::uint64_t new_epoch);

  // ---- observers -------------------------------------------------------------

  [[nodiscard]] bool bootstrapped() const { return store_ != nullptr; }
  [[nodiscard]] schema::TaskSchema& schema() { return schema_; }
  [[nodiscard]] history::HistoryDb& db() { return store_->db(); }
  /// The replica store, the same object across resyncs.
  [[nodiscard]] storage::DurableHistory& store() { return *store_; }
  [[nodiscard]] const std::string& dir() const { return dir_; }
  [[nodiscard]] const server::Endpoint& leader() const { return leader_; }

  /// The applied position (lock-free: the `stats` path reads it while the
  /// stream thread applies).  The acquire on `seq` pairs with the release
  /// in `publish_position`: observing a seq also observes every database
  /// mutation applied before it was published.
  [[nodiscard]] StreamPosition position() const {
    const std::uint64_t seq = seq_.load(std::memory_order_acquire);
    return {epoch_.load(std::memory_order_relaxed), seq};
  }
  /// Local journal file size (header + frames), for `stats`.
  [[nodiscard]] std::uint64_t journal_bytes() const {
    return journal_bytes_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t frames_applied() const { return applied_; }
  /// Frames rejected for carrying a stale epoch (fenced ex-leader).
  [[nodiscard]] std::uint64_t fenced_frames() const { return fenced_; }
  /// Times the stream fell out of sync and reconnected for a resync.
  [[nodiscard]] std::uint64_t resyncs() const { return resyncs_; }
  [[nodiscard]] std::string last_error() const;
  /// Where the stream thread is right now ("connecting", "streaming",
  /// "backoff", ...) — names the wedge when a follower stalls.
  [[nodiscard]] const char* stream_state() const {
    return state_.load(std::memory_order_relaxed);
  }

 private:
  /// Opens the replica store in the directory.  Returns false (after
  /// recording why) when the directory holds nothing consistently usable —
  /// the caller falls back to a full snapshot fetch.
  [[nodiscard]] bool recover_local();
  /// One connect + subscribe-from-nothing + snapshot install.
  [[nodiscard]] bool fetch_snapshot();
  /// Dials the leader into `sock` (under `sock_mutex_`, for `stop`), checks
  /// its hello and sends kSubscribe with `position`; false once stopping.
  /// Throws NetError when the peer is silent or is no herc server.
  [[nodiscard]] bool subscribe(server::Socket& sock,
                               const std::string& position);
  /// One connect + subscribe + apply-until-disconnect.
  void stream_once();
  void stream_loop();

  void gated(const std::function<void()>& fn);
  void write_marker(std::uint64_t epoch, std::uint64_t base_seq);
  void publish_position(std::uint64_t epoch, std::uint64_t seq);
  void set_error(std::string message);

  server::Endpoint leader_;
  std::string dir_;
  std::function<void(const std::function<void()>&)> gate_;
  support::SystemClock clock_;

  /// Replaced in place on resync: the store and its database point at
  /// `schema_`, and the serving session holds `store()` across resyncs.
  schema::TaskSchema schema_;
  std::unique_ptr<storage::DurableHistory> store_;
  /// When true the next subscribe asks for a full snapshot (the local
  /// database can no longer be trusted to extend).
  bool need_snapshot_ = true;
  /// `support::envelope_checksum` of the last frame in the local journal
  /// (valid when `has_tail_`).  Sent with every subscribe so the leader
  /// can tell a caught-up follower from one whose history diverged at the
  /// same sequence number (a torn leader tail the follower streamed
  /// complete) and answer the latter with a snapshot resync.
  std::uint64_t tail_checksum_ = 0;
  bool has_tail_ = false;

  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<std::uint64_t> seq_{0};
  std::atomic<std::uint64_t> journal_bytes_{0};
  std::atomic<std::uint64_t> applied_{0};
  std::atomic<std::uint64_t> fenced_{0};
  std::atomic<std::uint64_t> resyncs_{0};

  std::thread thread_;
  std::atomic<bool> stopping_{false};
  /// Guards `sock_` between the stream thread and `stop`'s shutdown.
  mutable std::mutex sock_mutex_;
  server::Socket sock_;
  mutable std::mutex error_mutex_;
  std::string last_error_;
  /// Stream-thread phase, for diagnostics (points at string literals).
  std::atomic<const char*> state_{"idle"};
};

/// What `promote_store` found and did.
struct PromoteReport {
  /// The store's epoch after the promotion checkpoint (the fence: strictly
  /// above anything the old leader ever journaled).
  std::uint64_t epoch = 0;
  /// The leader-style recovery that ran first (seals, quarantines).
  storage::RecoveryReport recovery;
};

/// Turns the replica store in `dir` into a leader store: full recovery
/// (sealing the ex-leader's interrupted runs, quarantining partial
/// products), a checkpoint under the next epoch, and removal of the
/// replica marker.  Throws `HistoryError` when `dir` is not a replica
/// store.  Safe to re-run after a mid-promote crash.
[[nodiscard]] PromoteReport promote_store(const std::string& dir);

}  // namespace herc::replica
