#include "replica/applier.hpp"

#include <chrono>
#include <filesystem>
#include <optional>
#include <vector>

#include "schema/schema_io.hpp"
#include "server/protocol.hpp"
#include "support/backoff.hpp"
#include "support/envelope.hpp"
#include "support/error.hpp"
#include "support/file.hpp"
#include "support/hash.hpp"
#include "support/text.hpp"

namespace herc::replica {

namespace fs = std::filesystem;
using support::HistoryError;
using support::NetError;

namespace {

/// Reconnection backoff: exponential (jittered ±25%) from the delay up to
/// the cap, reset whenever the stream makes progress, so a brief leader
/// bounce retries fast while a long outage stops hammering the network.
constexpr int kReconnectDelayMs = 200;
constexpr int kReconnectCapMs = 5'000;
/// Every dial is bounded, so a black-holed path cannot wedge a follower.
constexpr int kConnectTimeoutMs = 5'000;
/// A leader that accepts but sends no hello this long, or stalls inside a
/// frame, is shed and re-dialed.
constexpr int kHelloTimeoutMs = 5'000;
/// A quiet subscription's liveness probe period (see `stream_once`).
constexpr int kIdleProbeMs = 5'000;

/// Jitter seed from the store directory, so a fleet of followers does not
/// reconnect in lockstep after a leader restart.
std::uint64_t backoff_seed(const std::string& dir) {
  return support::fnv1a(dir) | 1;
}

}  // namespace

ReplicaApplier::ReplicaApplier(server::Endpoint leader, std::string dir)
    : leader_(std::move(leader)), dir_(std::move(dir)) {}

ReplicaApplier::~ReplicaApplier() { stop(); }

std::string ReplicaApplier::last_error() const {
  std::scoped_lock lock(error_mutex_);
  return last_error_;
}

void ReplicaApplier::set_error(std::string message) {
  std::scoped_lock lock(error_mutex_);
  last_error_ = std::move(message);
}

void ReplicaApplier::gated(const std::function<void()>& fn) {
  if (gate_) {
    gate_(fn);
  } else {
    fn();
  }
}

void ReplicaApplier::publish_position(std::uint64_t epoch, std::uint64_t seq) {
  journal_bytes_.store(store_ != nullptr ? store_->journal_file_bytes() : 0,
                       std::memory_order_relaxed);
  epoch_.store(epoch, std::memory_order_relaxed);
  // The release pairs with `position()`'s acquire: a reader that observes
  // the new seq also observes every database mutation applied before it.
  seq_.store(seq, std::memory_order_release);
}

void ReplicaApplier::write_marker(std::uint64_t epoch,
                                  std::uint64_t base_seq) {
  support::write_file_atomic(storage::StorePaths(dir_).marker,
                             {"replica base " + std::to_string(epoch) + " " +
                              std::to_string(base_seq) + " leader " +
                              leader_.describe() + "\n"});
}

// ---- local recovery ----------------------------------------------------------

bool ReplicaApplier::recover_local() {
  const storage::StorePaths paths(dir_);
  if (!fs::exists(paths.marker) || !fs::exists(paths.schema) ||
      !fs::exists(paths.snapshot)) {
    return false;
  }

  // Marker: "replica base <epoch> <seq> leader <endpoint>".
  const std::vector<std::string> marker = support::split_ws(
      support::trim(support::read_file(paths.marker).value_or("")));
  std::optional<std::uint64_t> marker_epoch;
  std::optional<std::uint64_t> marker_base;
  if (marker.size() >= 6 && marker[0] == "replica" && marker[1] == "base" &&
      marker[4] == "leader") {
    marker_epoch = support::parse_int<std::uint64_t>(marker[2]);
    marker_base = support::parse_int<std::uint64_t>(marker[3]);
  }
  if (!marker_epoch.has_value() || !marker_base.has_value()) {
    set_error("replica store '" + dir_ + "': malformed replica marker");
    return false;
  }

  schema_ = storage::recorded_schema(dir_).value();
  // The store recovers snapshot and journal, and skips the crash sweep: it
  // sees the marker.  A snapshot from a different epoch than the marker
  // means a crash landed between install steps; resync rather than guess.
  auto store = std::make_unique<storage::DurableHistory>(schema_, clock_,
                                                         dir_);
  if (store->epoch() != *marker_epoch) {
    set_error("replica store '" + dir_ +
              "': snapshot epoch differs from the replica marker");
    return false;
  }
  const std::vector<std::string> records = store->take_journal_records();
  has_tail_ = !records.empty();
  tail_checksum_ = has_tail_ ? support::envelope_checksum(records.back()) : 0;
  store_ = std::move(store);
  need_snapshot_ = false;
  publish_position(*marker_epoch, *marker_base + store_->journal_seq());
  return true;
}

// ---- the apply path ----------------------------------------------------------

void ReplicaApplier::install_snapshot(const SnapshotShipment& snapshot) {
  schema_ = schema::parse_schema(snapshot.schema_text);
  if (store_ == nullptr) {
    // Default options: the journal syncs by interval, and the replica
    // checkpoints only when its leader does.
    store_ = std::make_unique<storage::DurableHistory>(
        schema_, clock_, dir_, storage::StoreOptions{}, snapshot.epoch,
        snapshot.image);
  } else {
    store_->install(snapshot.epoch, snapshot.image);
  }
  // Marker last: a crash before this line leaves marker and snapshot at
  // different epochs, which recovery answers with a clean resync.
  write_marker(snapshot.epoch, snapshot.seq);
  need_snapshot_ = false;
  has_tail_ = false;  // local journal is empty: nothing to vouch for
  publish_position(snapshot.epoch, snapshot.seq);
}

ApplyOutcome ReplicaApplier::apply_frame(const JournalShipment& shipment) {
  if (store_ == nullptr) return ApplyOutcome::kGap;
  const std::uint64_t epoch = epoch_.load(std::memory_order_relaxed);
  const std::uint64_t seq = seq_.load(std::memory_order_relaxed);
  if (shipment.epoch < epoch) {
    fenced_.fetch_add(1, std::memory_order_relaxed);
    return ApplyOutcome::kFenced;
  }
  if (shipment.epoch > epoch) return ApplyOutcome::kGap;
  if (shipment.seq < seq) return ApplyOutcome::kDuplicate;
  if (shipment.seq > seq) return ApplyOutcome::kGap;

  store_->apply_frame(shipment.lines);
  // Release: a reader that sees the new count also sees the frame's
  // mutations (`frames_applied` is what callers wait on).
  applied_.fetch_add(1, std::memory_order_release);
  tail_checksum_ = support::envelope_checksum(shipment.lines);
  has_tail_ = true;
  publish_position(epoch, seq + 1);
  return ApplyOutcome::kApplied;
}

void ReplicaApplier::apply_checkpoint(std::uint64_t new_epoch) {
  if (store_ == nullptr) return;
  if (new_epoch <= epoch_.load(std::memory_order_relaxed)) return;
  // The leader compacted: everything we have applied is now inside its
  // snapshot of `new_epoch`.  Mirror the compaction locally.
  store_->checkpoint(new_epoch);
  write_marker(new_epoch, 0);
  has_tail_ = false;  // the compacted journal starts empty
  publish_position(new_epoch, 0);
}

// ---- the stream --------------------------------------------------------------

bool ReplicaApplier::bootstrap(int attempts) {
  try {
    if (recover_local()) return true;
  } catch (const std::exception& e) {
    set_error(e.what());
  }
  support::Backoff backoff(kReconnectDelayMs, kReconnectCapMs,
                           backoff_seed(dir_));
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (stopping_.load()) return false;
    if (attempt > 0) backoff.sleep(&stopping_);
    try {
      if (fetch_snapshot()) return true;
    } catch (const std::exception& e) {
      set_error(e.what());
    }
  }
  return false;
}

bool ReplicaApplier::fetch_snapshot() {
  server::Socket sock;
  if (!subscribe(sock, encode_subscribe({}))) return false;
  server::Frame frame;
  // Idle-bounded only: the snapshot may be large, so once its first byte
  // arrives the transfer is given unlimited time — but a leader that goes
  // silent before sending anything is shed.
  const server::ReadDeadline snapshot_deadline{kHelloTimeoutMs, 0};
  while (server::read_frame(sock.fd(), frame, snapshot_deadline) ==
         server::ReadOutcome::kFrame) {
    if (frame.type == server::FrameType::kSnapshot) {
      const SnapshotShipment snapshot = decode_snapshot(frame.payload);
      gated([&] { install_snapshot(snapshot); });
      return true;
    }
    if (frame.type == server::FrameType::kResult) {
      set_error(server::decode_result(frame.payload).error);
      return false;
    }
    // kJournal before the snapshot cannot happen (the leader bootstraps
    // first); anything else on this connection is ignorable noise.
  }
  throw NetError("replica: leader closed the stream before the snapshot");
}

void ReplicaApplier::start() {
  if (thread_.joinable()) return;
  stopping_.store(false);
  thread_ = std::thread([this] { stream_loop(); });
}

void ReplicaApplier::stop() {
  stopping_.store(true);
  {
    std::scoped_lock lock(sock_mutex_);
    if (sock_.valid()) sock_.shutdown_both();
  }
  if (thread_.joinable()) thread_.join();
}

void ReplicaApplier::stream_loop() {
  support::Backoff backoff(kReconnectDelayMs, kReconnectCapMs,
                           backoff_seed(dir_) ^ 0x5cddULL);
  while (!stopping_.load()) {
    const std::uint64_t applied_before = applied_;
    const StreamPosition before = position();
    try {
      stream_once();
    } catch (const std::exception& e) {
      set_error(e.what());
    }
    {
      std::scoped_lock lock(sock_mutex_);
      sock_.close();
    }
    if (stopping_.load()) break;
    const StreamPosition after = position();
    if (applied_ != applied_before || after.epoch != before.epoch ||
        after.seq != before.seq) {
      // The stream moved before it broke: the leader is (or was) healthy,
      // so retry fast instead of escalating the pause.
      backoff.reset();
    }
    state_.store("backoff", std::memory_order_relaxed);
    backoff.sleep(&stopping_);
  }
  state_.store("stopped", std::memory_order_relaxed);
}

bool ReplicaApplier::subscribe(server::Socket& sock,
                               const std::string& position) {
  server::Socket dialed =
      server::connect_to(leader_, kConnectTimeoutMs);
  {
    std::scoped_lock lock(sock_mutex_);
    if (stopping_.load()) return false;
    sock = std::move(dialed);
  }
  server::Frame hello;
  const server::ReadDeadline deadline{kHelloTimeoutMs, kHelloTimeoutMs};
  const server::ReadOutcome outcome =
      server::read_frame(sock.fd(), hello, deadline);
  if (outcome == server::ReadOutcome::kIdle) {
    throw NetError("replica: '" + leader_.describe() +
                   "' accepted the connection but sent no hello within " +
                   std::to_string(kHelloTimeoutMs) + "ms");
  }
  if (outcome != server::ReadOutcome::kFrame ||
      hello.type != server::FrameType::kHello ||
      hello.payload.rfind(server::kMagic, 0) != 0) {
    throw NetError("replica: '" + leader_.describe() +
                   "' is not a herc server");
  }
  server::write_frame(sock.fd(), {server::FrameType::kSubscribe, position});
  return true;
}

void ReplicaApplier::stream_once() {
  state_.store("connecting", std::memory_order_relaxed);
  const std::string position =
      need_snapshot_
          ? encode_subscribe({})
          : encode_subscribe(
                StreamPosition{epoch_.load(std::memory_order_relaxed),
                               seq_.load(std::memory_order_relaxed)},
                has_tail_ ? std::optional<std::uint64_t>(tail_checksum_)
                          : std::nullopt);
  if (!subscribe(sock_, position)) return;
  const int fd = sock_.fd();
  server::Frame frame;

  state_.store("streaming", std::memory_order_relaxed);
  // Idle-bounded stream reads: a caught-up subscription is legitimately
  // quiet, so the first quiet period sends a keepalive ack (cheap, and it
  // refreshes the leader's lag view); a second consecutive quiet period
  // means even that provoked nothing — the socket may be silently dead
  // (black-holed route, wedged proxy), so re-dial.  `frame_ms` bounds a
  // peer that stalls mid-frame.
  const server::ReadDeadline deadline{kIdleProbeMs, kHelloTimeoutMs};
  int quiet_periods = 0;
  while (true) {
    const server::ReadOutcome outcome =
        server::read_frame(fd, frame, deadline);
    if (outcome == server::ReadOutcome::kEof) break;
    if (outcome == server::ReadOutcome::kIdle) {
      if (stopping_.load()) return;
      if (++quiet_periods >= 2) {
        throw NetError("replica: stream from '" + leader_.describe() +
                       "' went silent past the liveness probe; re-dialing");
      }
      server::write_frame(
          fd, {server::FrameType::kAck,
               encode_ack({epoch_.load(std::memory_order_relaxed),
                           seq_.load(std::memory_order_relaxed)})});
      continue;
    }
    quiet_periods = 0;
    if (stopping_.load()) return;
    switch (frame.type) {
      case server::FrameType::kSnapshot: {
        const SnapshotShipment snapshot = decode_snapshot(frame.payload);
        try {
          gated([&] { install_snapshot(snapshot); });
        } catch (...) {
          need_snapshot_ = true;  // half-installed: never extend it
          throw;
        }
        break;
      }
      case server::FrameType::kJournal: {
        const JournalShipment shipment = decode_journal(frame.payload);
        ApplyOutcome outcome = ApplyOutcome::kGap;
        try {
          gated([&] { outcome = apply_frame(shipment); });
        } catch (...) {
          need_snapshot_ = true;  // the journal has a frame the db may not
          throw;
        }
        if (outcome == ApplyOutcome::kGap) {
          resyncs_.fetch_add(1, std::memory_order_relaxed);
          return;  // reconnect; the leader decides backlog vs snapshot
        }
        if (outcome == ApplyOutcome::kFenced) {
          set_error("replica: stream from '" + leader_.describe() +
                    "' carries stale epoch " + std::to_string(shipment.epoch) +
                    " (we are at " +
                    std::to_string(epoch_.load(std::memory_order_relaxed)) +
                    "); the leader is fenced");
          return;
        }
        break;
      }
      case server::FrameType::kCheckpoint: {
        const std::uint64_t new_epoch = decode_checkpoint(frame.payload);
        try {
          gated([&] { apply_checkpoint(new_epoch); });
        } catch (...) {
          need_snapshot_ = true;
          throw;
        }
        break;
      }
      case server::FrameType::kResult: {
        set_error(server::decode_result(frame.payload).error);
        return;
      }
      default:
        break;  // kOutput etc.: ignorable on a subscription connection
    }
    server::write_frame(
        fd, {server::FrameType::kAck,
             encode_ack({epoch_.load(std::memory_order_relaxed),
                         seq_.load(std::memory_order_relaxed)})});
  }
}

// ---- promotion ---------------------------------------------------------------

PromoteReport promote_store(const std::string& dir) {
  if (!storage::is_replica_store(dir)) {
    throw HistoryError("promote: '" + dir +
                       "' is not a replica store (no replica marker)");
  }
  const schema::TaskSchema schema = storage::recorded_schema(dir).value();
  support::SystemClock clock;
  PromoteReport report;
  {
    storage::DurableHistory store(schema, clock, dir);
    // Leader-style recovery, which the store skips while the marker is
    // there: the ex-leader's interrupted runs seal, their partial products
    // quarantine — exactly a crashed leader restarting.
    store.sweep_interrupted_runs();
    report.recovery = store.recovery();
    // The fence.  Checkpointing bumps the epoch above anything the old
    // leader ever journaled, so its frames can never apply here again.
    store.checkpoint();
    report.epoch = store.epoch();
  }
  support::remove_file(storage::StorePaths(dir).marker);
  return report;
}

}  // namespace herc::replica
