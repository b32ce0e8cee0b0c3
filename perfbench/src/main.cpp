// herc_perfbench: one workload against the real `herc serve`, end to end.
//
//   herc_perfbench --workload edit|browse|runs --seed N --seconds S
//                  --trace 0|1 --herc <herc binary> --work <dir>
//                  --out <dir> [--tiny]
//
// Builds the workload's store from the seed, starts `herc serve` on it
// (timing set-up several times), drives it from three closed-loop
// designers, stops it gracefully, checks the outputs, and prints the
// metrics.  The last stdout line is the JSON result: the end-to-end
// metrics, or with --trace 1 the per-layer ones.  See perfbench/README.md.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "layers.hpp"
#include "load.hpp"
#include "serve.hpp"
#include "server/client.hpp"
#include "stats.hpp"
#include "verify.hpp"
#include "workload.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

namespace fs = std::filesystem;

struct Args {
  Workload workload = Workload::kEdit;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string herc;
  std::string work;
  std::string out;
};

/// The metrics BENCHMARK.json declares; every workload reports each one.
/// Throughput, the read latencies, the p99s and `run_p50_us` are printed
/// and kept in the .e2e.json artefact but not gated: see README.md,
/// "Steadiness".
const std::vector<std::string> kEndToEnd = {"setup_s", "write_p50_us",
                                            "peak_rss_mb"};
const std::vector<std::string> kPerLayer = {
    "server.rtt_p50_us",       "server.read_in_run_share",
    "server.read_free_p50_us", "server.reply_bytes_per_read",
    "cli.read_exec_p50_us",    "cli.write_exec_p50_us",
    "history.page_p50_us",     "history.examined_per_row",
    "history.apply_line_us",   "index.on_lines_us",
    "index.open_s",            "index.rebuild_s",
    "storage.open_s",          "storage.append_p50_us",
    "storage.append_p99_us",   "storage.frames_per_write",
    "storage.bytes_per_write", "replica.ship_frame_us"};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      const std::optional<Workload> w = parse_workload(value);
      if (!w) throw std::invalid_argument("unknown workload '" + value + "'");
      a.workload = *w;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--herc") {
      a.herc = value;
    } else if (key == "--work") {
      a.work = value;
    } else if (key == "--out") {
      a.out = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload || a.herc.empty() || a.work.empty() || a.out.empty() ||
      a.seconds <= 0) {
    throw std::invalid_argument(
        "usage: herc_perfbench --workload edit|browse|runs --seed N "
        "--seconds S --trace 0|1 --herc BIN --work DIR --out DIR [--tiny]");
  }
  return a;
}

double seconds_between(std::int64_t from, std::int64_t to) {
  return static_cast<double>(to - from) / 1e9;
}

std::string number(double v) {
  std::ostringstream s;
  s << std::setprecision(12) << v;
  return s.str();
}

/// Connects every designer and waits until each has answered a warm-up
/// command.
std::vector<herc::server::Client> connect_designers(
    const herc::server::Endpoint& endpoint) {
  std::vector<herc::server::Client> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(herc::server::Client::connect(endpoint, 10'000));
    clients.back().set_read_timeout(120'000);
    clients.back().send("session user d" + std::to_string(c));
    clients.back().send("echo ready");
  }
  for (herc::server::Client& client : clients) {
    for (int k = 0; k < 2; ++k) {
      const herc::server::CallResult r = client.receive();
      if (!r.ok()) throw std::runtime_error("warm-up failed: " + r.error);
    }
  }
  return clients;
}

/// The measured window is cut into this many slices, and a figure is the
/// quartile of its per-slice values least disturbed from outside: the
/// lower quartile of latencies, the upper quartile of throughput.  The
/// host steals CPU from this machine in bursts, which only ever make a
/// slice slower, so a burst that spoils most slices does not move it.
constexpr std::size_t kSlices = 10;
constexpr double kQuietQuartile = 0.25;

/// Latencies of one op class inside the measured window, in µs, in the
/// order the commands were sent.
std::vector<double> latencies(const LoadResult& load, OpClass cls) {
  std::vector<std::pair<std::int64_t, double>> timed;
  for (const ClientLog& c : load.clients) {
    for (const OpRecord& r : c.records) {
      if (r.measured && r.ok && r.cls == cls) {
        timed.emplace_back(r.start_ns,
                           static_cast<double>(r.end_ns - r.start_ns) / 1e3);
      }
    }
  }
  std::sort(timed.begin(), timed.end());
  std::vector<double> out;
  for (const auto& [start, us] : timed) out.push_back(us);
  return out;
}

/// Acknowledged commands per second: the quiet quartile over kSlices equal
/// time slices of the window, each counting the replies that arrived in it.
double ops_per_second(const LoadResult& load) {
  std::vector<std::int64_t> ends;
  std::int64_t first = INT64_MAX;
  for (const ClientLog& c : load.clients) {
    for (const OpRecord& r : c.records) {
      if (!r.measured || !r.ok) continue;
      first = std::min(first, r.start_ns);
      ends.push_back(r.end_ns);
    }
  }
  if (ends.empty()) return 0;
  const std::int64_t last = *std::max_element(ends.begin(), ends.end());
  const double width =
      static_cast<double>(last - first) / static_cast<double>(kSlices);
  std::vector<double> counts(kSlices, 0.0);
  for (const std::int64_t end : ends) {
    const auto slice = static_cast<std::size_t>(
        static_cast<double>(end - first) / width);
    counts[std::min(slice, kSlices - 1)] += 1;
  }
  for (double& c : counts) c /= width / 1e9;
  std::sort(counts.begin(), counts.end());
  return quantile(counts, 1 - kQuietQuartile, 0).value_or(0);
}

void add_latency(std::vector<Metric>& out, const std::string& stem,
                 const std::vector<double>& samples) {
  if (const auto p50 =
          sliced_quantile(samples, 0.50, kSlices, kQuietQuartile)) {
    out.push_back({stem + "_p50_us", *p50, "us", samples.size()});
  }
  if (const auto p99 =
          sliced_quantile(samples, 0.99, kSlices, kQuietQuartile)) {
    out.push_back({stem + "_p99_us", *p99, "us", samples.size()});
  }
}

void print_metric(const Metric& m) {
  std::cout << "  " << std::left << std::setw(30) << m.name << " "
            << std::setw(14) << number(m.value) << " " << m.unit;
  if (m.samples > 0) std::cout << "  (n=" << m.samples << ")";
  std::cout << "\n";
}

std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed,
                        const std::vector<Metric>& metrics,
                        const std::vector<std::string>& names) {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : names) {
    const auto it = std::find_if(metrics.begin(), metrics.end(),
                                 [&](const Metric& m) { return m.name == name; });
    if (it == metrics.end()) {
      std::cerr << "perfbench: metric " << name
                << " has too few samples in this run\n";
      continue;
    }
    json += std::string(first ? "" : ", ") + "\"" + name +
            "\": {\"value\": " + number(it->value) + ", \"unit\": \"" +
            it->unit + "\"}";
    first = false;
  }
  return json + "}}";
}

void write_metrics_file(const std::string& path,
                        const std::vector<Metric>& metrics) {
  std::ofstream out(path, std::ios::trunc);
  out << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out << (i == 0 ? "" : ",") << "\n  \"" << metrics[i].name
        << "\": {\"value\": " << number(metrics[i].value) << ", \"unit\": \""
        << metrics[i].unit << "\", \"samples\": " << metrics[i].samples
        << "}";
  }
  out << "\n}\n";
}

/// The untraced throughput this checkout last measured for the workload
/// (same seed preferred), for the tracing-overhead line.
std::optional<std::pair<double, std::string>> untraced_ops(const Args& a) {
  const std::string stem = std::string(workload_name(a.workload)) + "-seed";
  fs::path best;
  for (const fs::directory_entry& e : fs::directory_iterator(a.out)) {
    const std::string name = e.path().filename().string();
    if (name.rfind(stem, 0) != 0 || !name.ends_with(".e2e.json")) continue;
    if (name == stem + std::to_string(a.seed) + ".e2e.json") {
      best = e.path();
      break;
    }
    if (best.empty() ||
        fs::last_write_time(e.path()) > fs::last_write_time(best)) {
      best = e.path();
    }
  }
  if (best.empty()) return std::nullopt;
  std::ifstream in(best);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  const std::size_t at = text.find("\"ops_per_s\": {\"value\": ");
  if (at == std::string::npos) return std::nullopt;
  return std::make_pair(std::stod(text.substr(at + 23)),
                        best.filename().string());
}

int run(const Args& a) {
  const std::string w = workload_name(a.workload);
  const std::string tag = w + "-seed" + std::to_string(a.seed);
  fs::remove_all(a.work);
  fs::create_directories(a.work);
  fs::create_directories(a.out);
  const std::string pristine = a.work + "/pristine";
  const std::size_t instances = history_size(a.workload, a.tiny);

  std::cout << "perfbench workload=" << w << " seed=" << a.seed
            << " trace=" << (a.trace ? 1 : 0) << " seconds=" << a.seconds
            << " nproc=" << ::sysconf(_SC_NPROCESSORS_ONLN)
            << " clients=" << kClients << " build=" << PERFBENCH_BUILD_TYPE
            << "\n";

  std::int64_t t0 = now_ns();
  const Preload pre = build_store(a.workload, a.seed, instances, pristine);
  sync_dir(pristine);
  std::cout << "store: " << pre.instances << " instances ("
            << pre.journal_tail
            << " in the journal tail), journal sync=interval every 64"
            << " appends (server default); built in "
            << number(seconds_between(t0, now_ns())) << " s\n";

  // Set-up: launch -> every designer answered, repeated on fresh copies
  // of the store; the last launch serves the load.  Opening the
  // 1M-instance browse store takes seconds, so it gets three launches; a
  // traced run reports no set-up time and launches once.
  const int launches = a.trace ? 1
                       : a.tiny ? 2
                       : a.workload == Workload::kBrowse ? 3
                                                          : 5;
  std::vector<double> setup_s;
  std::unique_ptr<ServerProcess> server;
  std::vector<herc::server::Client> clients;
  std::string run_dir;
  for (int k = 0; k < launches; ++k) {
    if (server) {
      clients.clear();
      if (server->stop() != 0) {
        throw std::runtime_error("herc serve exited uncleanly:\n" +
                                 server->output());
      }
      server.reset();
      fs::remove_all(run_dir);
    }
    run_dir = a.work + "/serve" + std::to_string(k);
    clone_store(pristine, run_dir);
    t0 = now_ns();
    server = std::make_unique<ServerProcess>(a.herc, run_dir);
    clients = connect_designers(server->endpoint());
    setup_s.push_back(seconds_between(t0, now_ns()));
  }

  // The resident high-water mark once set-up is done: opening the store
  // and its indexes.  The mark after the load also counts what the load
  // imported, which grows with throughput, so it is printed, not gated.
  const double peak_rss_mb = static_cast<double>(server->peak_rss_kib()) / 1024;
  std::string stats_before;
  if (a.trace) stats_before = clients[0].call("stats --json").output;
  const double warmup_s = std::min(1.0, a.seconds / 10);
  const LoadResult load =
      drive(clients, a.workload, pre, a.seed, warmup_s, a.seconds, a.trace);
  TraceInputs trace;
  if (a.trace) {
    trace.stats_after = clients[0].call("stats --json").output;
    trace.rtt_us = probe_rtt(clients[0], 2000);
  }
  const double loaded_rss_mb =
      static_cast<double>(server->peak_rss_kib()) / 1024;
  clients.clear();
  const int exit_status = server->stop();
  const std::string server_output = server->output();
  server.reset();
  sync_dir(run_dir);

  CheckReport report;
  if (exit_status != 0) {
    report.failures.push_back("herc serve exited with " +
                              std::to_string(exit_status) + ":\n" +
                              server_output);
  }
  check_fsck(run_dir, report);
  std::vector<Metric> metrics;
  {
    herc::core::DesignSession final_session(store_schema(run_dir));
    final_session.open_storage(run_dir);
    check_session(final_session, load, report);
    for (const std::string& e : load.errors()) report.failures.push_back(e);

    if (a.trace) {
      trace.workload = a.workload;
      trace.pristine_dir = pristine;
      trace.run_dir = run_dir;
      trace.work_dir = a.work;
      trace.load = &load;
      trace.stats_before = stats_before;
      SpanLog spans;
      record_call_spans(load, spans);
      metrics = measure_layers(trace, final_session, spans);
      // One span file per workload (the latest traced run's): they are
      // large, and the per-seed layer metrics are kept beside them.
      const std::string span_file = a.out + "/" + w + ".spans.jsonl";
      spans.write(span_file);
      std::cout << "spans: " << spans.size() << " written to " << span_file
                << "\n";
    }
  }

  const std::size_t attempted = load.attempted();
  const std::size_t failed = load.failed();
  std::cout << "checks: fsck, " << report.imports << " acknowledged imports, "
            << report.pages << " index/scan page pairs, " << report.runs
            << " runs -> " << (report.ok() ? "ok" : "FAILED") << "\n";
  for (const std::string& f : report.failures) {
    std::cerr << "check failed: " << f << "\n";
  }
  std::cout << "ops: " << attempted << " attempted, " << failed
            << " failed in the measured window\n";

  std::vector<Metric> e2e;
  e2e.push_back({"setup_s", median(setup_s).value_or(0), "s", setup_s.size()});
  e2e.push_back({"ops_per_s", ops_per_second(load), "1/s", attempted});
  add_latency(e2e, "read", latencies(load, OpClass::kRead));
  add_latency(e2e, "write", latencies(load, OpClass::kWrite));
  add_latency(e2e, "run", latencies(load, OpClass::kRun));
  e2e.push_back({"peak_rss_mb", peak_rss_mb, "MB", 0});
  e2e.push_back({"loaded_rss_mb", loaded_rss_mb, "MB", 0});
  const bool correct = report.ok() && failed == 0 && attempted > 0;
  if (!a.trace) {
    std::cout << "end to end (" << w << "):\n";
    for (const Metric& m : e2e) print_metric(m);
    write_metrics_file(a.out + "/" + tag + ".e2e.json", e2e);
    fs::remove_all(a.work);
    std::cout << result_json(correct, attempted, failed, e2e, kEndToEnd)
              << std::endl;
    return 0;
  }

  const double traced_ops = ops_per_second(load);
  if (const auto base = untraced_ops(a)) {
    std::cout << "tracing overhead: traced " << number(traced_ops)
              << " ops/s vs untraced " << number(base->first) << " ops/s ("
              << base->second << "): "
              << number(100.0 * (1.0 - traced_ops / base->first)) << "%\n";
  } else {
    std::cout << "tracing overhead: traced " << number(traced_ops)
              << " ops/s; no untraced run of " << w
              << " in this checkout to compare with\n";
  }
  std::cout << "per layer (" << w << "):\n";
  for (const Metric& m : metrics) print_metric(m);
  write_metrics_file(a.out + "/" + tag + ".layers.json", metrics);
  fs::remove_all(a.work);
  std::cout << result_json(correct, attempted, failed, metrics, kPerLayer)
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
