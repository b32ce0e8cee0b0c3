#include "load.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <thread>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t LoadResult::attempted() const {
  std::size_t n = 0;
  for (const ClientLog& c : clients) {
    for (const OpRecord& r : c.records) n += r.measured ? 1 : 0;
  }
  return n;
}

std::size_t LoadResult::failed() const {
  std::size_t n = 0;
  for (const ClientLog& c : clients) {
    for (const OpRecord& r : c.records) n += r.measured && !r.ok ? 1 : 0;
  }
  return n;
}

std::vector<std::string> LoadResult::errors() const {
  std::vector<std::string> out;
  for (const ClientLog& c : clients) {
    out.insert(out.end(), c.errors.begin(), c.errors.end());
  }
  return out;
}

namespace {

constexpr std::size_t kBrowseSample = 40;

void designer(herc::server::Client& client, OpStream& stream,
              std::int64_t window_start, std::int64_t deadline,
              bool keep_ops, ClientLog& log) {
  try {
    while (now_ns() < deadline) {
      Op op = stream.next();
      OpRecord rec;
      rec.cls = op.cls;
      rec.start_ns = now_ns();
      const herc::server::CallResult reply = client.call(op.line, op.body);
      rec.end_ns = now_ns();
      rec.ok = reply.ok();
      rec.measured = rec.start_ns >= window_start;
      if (!rec.ok) {
        log.errors.push_back(op.line + ": " + reply.error);
      } else {
        stream.observe(op, reply.output);
        if (!op.import_name.empty()) {
          log.imports.emplace_back(op.import_entity, op.import_name);
        }
        if (op.cls == OpClass::kRun) log.run_outputs.push_back(reply.output);
        if (op.browse && !op.browse->after &&
            log.browse_sample.size() < kBrowseSample) {
          log.browse_sample.push_back(*op.browse);
        }
      }
      log.records.push_back(rec);
      if (keep_ops) log.ops.push_back(std::move(op));
    }
  } catch (const std::exception& e) {
    // A lost connection or an unresolvable command ends this designer;
    // the failure is counted and fails the run's output check.
    OpRecord rec;
    rec.start_ns = rec.end_ns = now_ns();
    rec.ok = false;
    rec.measured = true;
    log.records.push_back(rec);
    log.errors.push_back(std::string("designer stopped: ") + e.what());
  }
}

}  // namespace

LoadResult drive(std::vector<herc::server::Client>& clients, Workload w,
                 const Preload& preload, std::uint64_t seed, double warmup_s,
                 double seconds, bool keep_ops) {
  LoadResult result;
  result.clients.resize(clients.size());
  std::vector<OpStream> streams;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    streams.emplace_back(w, preload, seed, static_cast<int>(c));
  }
  const std::int64_t start = now_ns();
  result.window_start_ns = start + static_cast<std::int64_t>(warmup_s * 1e9);
  const std::int64_t deadline =
      result.window_start_ns + static_cast<std::int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back(designer, std::ref(clients[c]), std::ref(streams[c]),
                         result.window_start_ns, deadline, keep_ops,
                         std::ref(result.clients[c]));
  }
  for (std::thread& t : threads) t.join();
  result.window_end_ns = result.window_start_ns;
  for (const ClientLog& c : result.clients) {
    for (const OpRecord& r : c.records) {
      if (r.measured) {
        result.window_end_ns = std::max(result.window_end_ns, r.end_ns);
      }
    }
  }
  return result;
}

}  // namespace perfbench
