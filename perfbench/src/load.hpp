// The closed-loop load generator: one thread per designer, each sending
// its next command only after the previous reply arrived, as
// `herc connect` does.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "server/client.hpp"
#include "workload.hpp"

namespace perfbench {

/// steady_clock nanoseconds.
[[nodiscard]] std::int64_t now_ns();

struct OpRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  OpClass cls = OpClass::kRead;
  bool ok = true;
  /// Sent inside the measured window (after the warm-up).
  bool measured = false;
};

struct ClientLog {
  std::vector<OpRecord> records;
  /// Every command sent, parallel with `records` (kept for traced runs).
  std::vector<Op> ops;
  /// Acknowledged imports: (entity, name).
  std::vector<std::pair<std::string, std::string>> imports;
  /// Replies to `run` commands.
  std::vector<std::string> run_outputs;
  /// The first browse pages this designer issued (output checks).
  std::vector<BrowseSpec> browse_sample;
  std::vector<std::string> errors;
};

struct LoadResult {
  std::vector<ClientLog> clients;
  std::int64_t window_start_ns = 0;
  std::int64_t window_end_ns = 0;

  /// Attempted and failed commands inside the measured window.
  [[nodiscard]] std::size_t attempted() const;
  [[nodiscard]] std::size_t failed() const;
  /// Every failure message, warm-up included.
  [[nodiscard]] std::vector<std::string> errors() const;
};

/// Drives `clients` (one per designer, already warm) for `warmup_s`
/// unmeasured seconds and then `seconds` measured ones.  `keep_ops`
/// retains every command for the traced replays.
[[nodiscard]] LoadResult drive(std::vector<herc::server::Client>& clients,
                               Workload w, const Preload& preload,
                               std::uint64_t seed, double warmup_s,
                               double seconds, bool keep_ops);

}  // namespace perfbench
