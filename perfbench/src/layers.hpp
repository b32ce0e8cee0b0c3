// The traced run's per-layer view: spans around the benchmark's own calls
// into the public functions of each module, and the metrics derived from
// them.  Nothing inside the program is instrumented.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "load.hpp"
#include "server/client.hpp"

namespace perfbench {

/// One timed call.  Spans of one request carry its op id ("c<designer>.<n>",
/// the n-th command that designer sent); `parent` is the enclosing span's
/// id, 0 for none.
struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::string name;
  std::string op;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  std::uint32_t add(std::string name, std::string op, std::uint32_t parent,
                    std::int64_t start_ns, std::int64_t end_ns);
  /// Opens a phase span; `close` sets its end.
  std::uint32_t open(std::string name);
  void close(std::uint32_t id);
  /// Writes one JSON object per line.
  void write(const std::string& path) const;
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  std::vector<Span> spans_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  /// Samples behind the value (0 for derived ratios).
  std::size_t samples = 0;
};

/// Everything the layer replays need.
struct TraceInputs {
  Workload workload;
  /// The pre-built store (never served from; clone it).
  std::string pristine_dir;
  /// The stopped server's store.
  std::string run_dir;
  /// Scratch space for replay stores.
  std::string work_dir;
  const LoadResult* load = nullptr;
  /// `stats --json` read before and after the load.
  std::string stats_before;
  std::string stats_after;
  /// Round-trip samples of `replicas` on a warm idle connection, µs.
  std::vector<double> rtt_us;
};

/// The traced window's call spans, one per command.
void record_call_spans(const LoadResult& load, SpanLog& spans);

/// Round trips of the lockless, connection-scoped `replicas` command.
[[nodiscard]] std::vector<double> probe_rtt(herc::server::Client& client,
                                            std::size_t count);

/// Runs every replay and returns the per-layer metrics the workload
/// produced.  `final_session` is open on the stopped server's store.
[[nodiscard]] std::vector<Metric> measure_layers(
    const TraceInputs& in, herc::core::DesignSession& final_session,
    SpanLog& spans);

}  // namespace perfbench
