// Replica benchmark: read throughput scaling with journal-streaming
// followers, plus replication lag, under a concurrent writer.  Emits
// machine-readable results to BENCH_replica.json in the working
// directory (EXPERIMENTS S12).
//
// The headline claims: spreading readers across follower replicas lifts
// aggregate read throughput off the leader's reader-writer lock (the
// ISSUE target is >=3x at 4 followers on a multi-core host), and a
// follower sees a leader write within single-digit milliseconds.  The
// emitted JSON records the core count: on a single-core runner the scale
// factor can dip below 1x, because every follower re-applies the write
// stream on the one core the readers also need — read offload only turns
// into read scaling when followers have cores of their own.
//
// Methodology mirrors bench_server: connections are established and
// warmed before the clock starts, reader threads release through a
// barrier, and latency is reported as p50/p95/p99.  A writer thread
// hammers imports on the leader for the whole timed window in every
// configuration, so "leader only" pays the exclusive-lock stalls that
// followers exist to dodge.  Numbers are measured, not asserted: on a
// single-core runner the scale factor is reported as-is.
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "replica/applier.hpp"
#include "replica/shipper.hpp"
#include "schema/standard_schemas.hpp"
#include "server/client.hpp"
#include "server/latency.hpp"
#include "server/server.hpp"

namespace {

using namespace herc;
using Clock = std::chrono::steady_clock;

constexpr const char* kWaveBody = "stimuli sw\nwave in 0:0 100:1 200:0\n";

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Releases all reader threads at once (same shape as bench_server's).
class StartGate {
 public:
  void arrive_and_wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    ++arrived_;
    cv_.notify_all();
    cv_.wait(lock, [&] { return open_; });
  }
  void wait_for(std::size_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return arrived_ >= n; });
  }
  void open() {
    const std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t arrived_ = 0;
  bool open_ = false;
};

/// A read-only follower: applier streaming from the leader, serving a
/// replica database over its own listener (the `herc serve
/// --replicate-from` wiring, in process).
struct FollowerNode {
  std::string dir;
  std::unique_ptr<replica::ReplicaApplier> applier;
  std::unique_ptr<core::DesignSession> session;
  std::unique_ptr<server::Server> server;
  server::Endpoint endpoint;

  ~FollowerNode() {
    if (applier != nullptr) applier->stop();
    if (server != nullptr) server->stop();
  }
};

std::unique_ptr<FollowerNode> make_follower(const server::Endpoint& leader,
                                            const std::string& dir) {
  auto node = std::make_unique<FollowerNode>();
  node->dir = dir;
  node->applier = std::make_unique<replica::ReplicaApplier>(leader, dir);
  if (!node->applier->bootstrap(/*attempts=*/50)) {
    std::fprintf(stderr, "bench_replica: follower bootstrap failed: %s\n",
                 node->applier->last_error().c_str());
    return nullptr;
  }
  node->session =
      std::make_unique<core::DesignSession>(node->applier->schema());
  node->session->attach_replica(&node->applier->store());
  server::ServeOptions serve_options;
  serve_options.read_only = true;
  node->server =
      std::make_unique<server::Server>(*node->session, serve_options);
  server::Server& srv = *node->server;
  node->applier->set_gate(
      [&srv](const std::function<void()>& fn) { srv.with_exclusive_session(fn); });
  node->endpoint =
      node->server->add_listener(server::Endpoint::parse("127.0.0.1:0"));
  node->server->start();
  node->applier->start();
  return node;
}

/// Aggregate read qps: `readers` threads, each pinned round-robin to one
/// of `endpoints`, running `ops` synchronous `browse Stimuli` queries
/// over a warmed connection — while a writer keeps importing on the
/// leader until every reader finishes.
double read_throughput(const std::vector<server::Endpoint>& endpoints,
                       const server::Endpoint& leader, int readers, int ops,
                       std::atomic<int>& errors,
                       server::LatencyHistogram& latency,
                       std::size_t& writes_done) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(readers));
  StartGate gate;
  std::atomic<bool> writer_stop{false};
  for (int c = 0; c < readers; ++c) {
    threads.emplace_back([&, c] {
      server::Client client = server::Client::connect(
          endpoints[static_cast<std::size_t>(c) % endpoints.size()]);
      if (!client.call("browse Stimuli").ok()) ++errors;  // warm, untimed
      gate.arrive_and_wait();
      for (int i = 0; i < ops; ++i) {
        const auto t0 = Clock::now();
        if (!client.call("browse Stimuli").ok()) ++errors;
        latency.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - t0)
                .count()));
      }
      client.close();
    });
  }
  std::size_t writes = 0;
  std::thread writer([&] {
    server::Client client = server::Client::connect(leader);
    gate.arrive_and_wait();
    while (!writer_stop.load(std::memory_order_relaxed)) {
      if (!client
               .call("import Performance w" + std::to_string(writes),
                     "delays\nin->out 12\n")
               .ok()) {
        ++errors;
      }
      ++writes;
    }
    client.close();
  });
  gate.wait_for(static_cast<std::size_t>(readers) + 1);
  const auto start = Clock::now();
  gate.open();
  for (std::thread& t : threads) t.join();
  writer_stop.store(true, std::memory_order_relaxed);
  writer.join();
  writes_done = writes;
  return readers * ops / ms_since(start) * 1000.0;
}

}  // namespace

int main() {
  const std::filesystem::path root =
      std::filesystem::temp_directory_path() / "herc_bench_replica";
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);

  core::DesignSession session(schema::make_full_schema());
  (void)session.open_storage((root / "leader").string());
  replica::JournalShipper shipper(session);
  server::Server server(session);
  server.set_replication_hub(&shipper);
  const server::Endpoint leader =
      server.add_listener(server::Endpoint::parse("127.0.0.1:0"));
  server.start();

  // Seed the design so `browse Stimuli` has something to walk.
  for (int i = 0; i < 32; ++i) {
    (void)session.import_data("Stimuli", "seed_" + std::to_string(i),
                              kWaveBody);
  }

  constexpr int kReaders = 4;
  constexpr int kOps = 250;
  std::atomic<int> errors{0};

  // Leader-only baseline: all readers on the leader, writer interleaved.
  double qps_leader = 0;
  server::LatencyHistogram leader_hist;
  std::size_t writes_leader = 0;
  qps_leader = read_throughput({leader}, leader, kReaders, kOps, errors,
                               leader_hist, writes_leader);

  // Follower fleets of growing size; readers pinned round-robin across
  // the followers only (the leader serves writes and the stream).
  const std::vector<std::size_t> kFleets = {1, 2, 4};
  std::vector<double> qps_followers;
  std::vector<server::LatencyHistogram> hists(kFleets.size());
  std::size_t writes_followers = 0;
  std::vector<std::unique_ptr<FollowerNode>> fleet;
  for (std::size_t fi = 0; fi < kFleets.size(); ++fi) {
    while (fleet.size() < kFleets[fi]) {
      auto node = make_follower(
          leader,
          (root / ("follower_" + std::to_string(fleet.size()))).string());
      if (node == nullptr) return 1;
      fleet.push_back(std::move(node));
    }
    std::vector<server::Endpoint> eps;
    eps.reserve(fleet.size());
    for (const auto& node : fleet) eps.push_back(node->endpoint);
    std::size_t writes = 0;
    qps_followers.push_back(read_throughput(eps, leader, kReaders, kOps,
                                            errors, hists[fi], writes));
    writes_followers = writes;
  }

  // Replication lag: after each sentinel import on the leader, time until
  // follower 0 has applied it (position catches the leader's journal seq).
  server::LatencyHistogram lag_hist;
  {
    replica::ReplicaApplier& applier = *fleet.front()->applier;
    for (int i = 0; i < 50; ++i) {
      (void)session.import_data("Stimuli", "lag_" + std::to_string(i),
                                kWaveBody);
      const std::uint64_t target = session.storage()->journal_seq();
      const auto t0 = Clock::now();
      while (applier.position().seq < target) {
        std::this_thread::yield();
        if (ms_since(t0) > 5000.0) break;  // runaway guard; shows in p99
      }
      lag_hist.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                                t0)
              .count()));
    }
  }

  const double scale_4 = qps_followers.back() / qps_leader;
  fleet.clear();
  server.stop();
  session.close_storage();
  std::filesystem::remove_all(root);

  if (errors.load() != 0) {
    std::fprintf(stderr, "bench_replica: %d command(s) failed\n",
                 errors.load());
    return 1;
  }

  std::ofstream json("BENCH_replica.json", std::ios::trunc);
  json << "{\n"
       << "  \"cores\": " << std::thread::hardware_concurrency() << ",\n"
       << "  \"readers\": " << kReaders << ",\n"
       << "  \"ops_per_reader\": " << kOps << ",\n"
       << "  \"read_qps_leader_only\": " << qps_leader << ",\n";
  for (std::size_t fi = 0; fi < kFleets.size(); ++fi) {
    json << "  \"read_qps_" << kFleets[fi]
         << "_followers\": " << qps_followers[fi] << ",\n";
  }
  json << "  \"read_scale_x_4_followers\": " << scale_4 << ",\n"
       << "  \"read_p95_us_4_followers\": "
       << hists.back().percentile(0.95) << ",\n"
       << "  \"writes_during_leader_run\": " << writes_leader << ",\n"
       << "  \"writes_during_4_follower_run\": " << writes_followers << ",\n"
       << "  \"lag_p50_us\": " << lag_hist.percentile(0.50) << ",\n"
       << "  \"lag_p95_us\": " << lag_hist.percentile(0.95) << ",\n"
       << "  \"lag_p99_us\": " << lag_hist.percentile(0.99) << "\n"
       << "}\n";
  json.close();

  std::printf("bench_replica: leader-only %.0f reads/s\n", qps_leader);
  for (std::size_t fi = 0; fi < kFleets.size(); ++fi) {
    std::printf("  %zu follower(s): %.0f reads/s (%.2fx)\n", kFleets[fi],
                qps_followers[fi], qps_followers[fi] / qps_leader);
  }
  std::printf("  replication lag p50/p95/p99: %llu/%llu/%lluus\n",
              static_cast<unsigned long long>(lag_hist.percentile(0.50)),
              static_cast<unsigned long long>(lag_hist.percentile(0.95)),
              static_cast<unsigned long long>(lag_hist.percentile(0.99)));
  return 0;
}
