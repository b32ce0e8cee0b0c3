#include "layers.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "cli/interpreter.hpp"
#include "history/query_planner.hpp"
#include "index/indexes.hpp"
#include "replica/shipper.hpp"
#include "serve.hpp"
#include "stats.hpp"
#include "storage/journal.hpp"
#include "storage/store.hpp"
#include "support/clock.hpp"
#include "support/record.hpp"
#include "support/text.hpp"

namespace perfbench {

namespace fs = std::filesystem;

std::uint32_t SpanLog::add(std::string name, std::string op,
                           std::uint32_t parent, std::int64_t start_ns,
                           std::int64_t end_ns) {
  Span s;
  s.id = static_cast<std::uint32_t>(spans_.size() + 1);
  s.parent = parent;
  s.name = std::move(name);
  s.op = std::move(op);
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::uint32_t SpanLog::open(std::string name) {
  const std::int64_t now = now_ns();
  return add(std::move(name), "", 0, now, now);
}

void SpanLog::close(std::uint32_t id) { spans_[id - 1].end_ns = now_ns(); }

void SpanLog::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (const Span& s : spans_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"op\":\"" << s.op << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
}

namespace {

/// Each replay stops after this long; its metric is a median, so a few
/// seconds of samples are plenty.
constexpr std::int64_t kReplayNs = 3'000'000'000;
/// Timed repetitions of the whole-store operations (open, rebuild).
constexpr int kRepeats = 3;

double micros(std::int64_t from, std::int64_t to) {
  return static_cast<double>(to - from) / 1e3;
}

double seconds(std::int64_t from, std::int64_t to) {
  return static_cast<double>(to - from) / 1e9;
}

std::string op_id(std::size_t client, std::size_t k) {
  return "c" + std::to_string(client) + "." + std::to_string(k);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// A command in global send order.
struct Sent {
  std::int64_t start_ns;
  std::size_t client;
  std::size_t k;
};

std::vector<Sent> send_order(const LoadResult& load) {
  std::vector<Sent> order;
  for (std::size_t c = 0; c < load.clients.size(); ++c) {
    const ClientLog& log = load.clients[c];
    for (std::size_t k = 0; k < log.ops.size(); ++k) {
      order.push_back({log.records[k].start_ns, c, k});
    }
  }
  std::sort(order.begin(), order.end(), [](const Sent& a, const Sent& b) {
    return a.start_ns < b.start_ns;
  });
  return order;
}

std::optional<double> json_number(const std::string& json,
                                   const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\":");
  if (at == std::string::npos) return std::nullopt;
  return std::stod(json.substr(at + key.size() + 3));
}

void add_quantile(std::vector<Metric>& out, const std::string& name,
                  std::vector<double> samples, double p,
                  const std::string& unit = "us") {
  std::sort(samples.begin(), samples.end());
  if (const std::optional<double> q = quantile(samples, p)) {
    out.push_back({name, *q, unit, samples.size()});
  }
}

void add_median(std::vector<Metric>& out, const std::string& name,
                std::vector<double> values, const std::string& unit) {
  const std::size_t n = values.size();
  if (const std::optional<double> m = median(std::move(values))) {
    out.push_back({name, *m, unit, n});
  }
}

// ---- server: the traced window itself ---------------------------------------

void window_metrics(const TraceInputs& in, std::vector<Metric>& out) {
  std::vector<std::pair<std::int64_t, std::int64_t>> runs;
  for (const ClientLog& c : in.load->clients) {
    for (const OpRecord& r : c.records) {
      if (r.measured && r.cls == OpClass::kRun) {
        runs.emplace_back(r.start_ns, r.end_ns);
      }
    }
  }
  std::sort(runs.begin(), runs.end());
  std::vector<double> in_run;
  std::vector<double> free;
  for (const ClientLog& c : in.load->clients) {
    for (const OpRecord& r : c.records) {
      if (!r.measured || !r.ok || r.cls != OpClass::kRead) continue;
      // Sent while a run was in flight: such a read finds the exclusive
      // session lock taken (a read already in flight when the run was
      // sent finishes first, and counts as free).
      bool in_flight_run = false;
      auto it = std::upper_bound(runs.begin(), runs.end(),
                                 std::make_pair(r.start_ns, INT64_MAX));
      if (it != runs.begin()) in_flight_run = std::prev(it)->second > r.start_ns;
      (in_flight_run ? in_run : free).push_back(micros(r.start_ns, r.end_ns));
    }
  }
  const std::size_t reads = in_run.size() + free.size();
  if (reads > 0) {
    out.push_back({"server.read_in_run_share",
                   static_cast<double>(in_run.size()) /
                       static_cast<double>(reads),
                   "share", reads});
  }
  add_quantile(out, "server.read_in_run_p50_us", in_run, 0.5);
  add_quantile(out, "server.read_free_p50_us", free, 0.5);

  const auto bytes0 = json_number(in.stats_before, "bytes_out");
  const auto bytes1 = json_number(in.stats_after, "bytes_out");
  const auto reads0 = json_number(in.stats_before, "read_commands");
  const auto reads1 = json_number(in.stats_after, "read_commands");
  if (bytes0 && bytes1 && reads0 && reads1 && *reads1 > *reads0) {
    out.push_back({"server.reply_bytes_per_read",
                   (*bytes1 - *bytes0) / (*reads1 - *reads0), "bytes",
                   static_cast<std::size_t>(*reads1 - *reads0)});
  }
  add_quantile(out, "server.rtt_p50_us", in.rtt_us, 0.5);
}

// ---- the run's journal --------------------------------------------------------

/// The frames the run appended past the pre-built journal tail, each with
/// the op id of the request that wrote it.
struct RunJournal {
  std::uint64_t epoch = 0;
  /// The pre-built store's own journal records.
  std::vector<std::string> pristine_records;
  std::vector<std::string> frames;
  std::vector<std::string> ops;
};

/// Maps each journal frame to the request that wrote it: imports and
/// annotations by their (unique, or k-th repeated) name, run frames by
/// the run's flow name.
std::vector<std::string> frame_ops(const LoadResult& load,
                                   const std::vector<std::string>& frames) {
  std::unordered_map<std::string, std::deque<std::string>> by_name;
  std::unordered_map<std::string, std::string> by_flow;
  for (std::size_t c = 0; c < load.clients.size(); ++c) {
    const ClientLog& log = load.clients[c];
    for (std::size_t k = 0; k < log.ops.size(); ++k) {
      if (!log.records[k].ok) continue;
      const Op& op = log.ops[k];
      const std::vector<std::string> args = herc::support::split_ws(op.line);
      if (!op.import_name.empty()) {
        by_name[op.import_name].push_back(op_id(c, k));
      } else if (args.size() >= 3 && args[0] == "annotate") {
        by_name[args[2]].push_back(op_id(c, k));
      } else if (args.size() >= 2 && args[0] == "run") {
        by_flow[args[1]] = op_id(c, k);
      }
    }
  }
  std::vector<std::string> out;
  std::string current_run;
  for (const std::string& frame : frames) {
    std::string op;
    for (const std::string& line : herc::support::split(frame, '\n')) {
      if (herc::support::trim(line).empty()) continue;
      herc::support::RecordReader rec(line);
      if (rec.kind() == "runb") {
        (void)rec.next_int64();
        current_run = by_flow[rec.next_string()];
        op = current_run;
      } else if (rec.kind() == "inst" || rec.kind() == "annot") {
        (void)rec.next_uint32();
        if (rec.kind() == "inst") (void)rec.next_string();
        const auto it = by_name.find(rec.next_string());
        if (it != by_name.end() && !it->second.empty()) {
          op = it->second.front();
          it->second.pop_front();
        } else {
          op = current_run;
        }
      } else if (rec.kind() != "blob") {
        op = current_run;
      }
      if (!op.empty()) break;
    }
    out.push_back(op);
  }
  return out;
}

RunJournal read_run_journal(const TraceInputs& in) {
  const herc::storage::ScanResult run =
      herc::storage::scan_journal(read_file(in.run_dir + "/journal.wal"));
  RunJournal j;
  j.pristine_records = herc::storage::scan_journal(
                           read_file(in.pristine_dir + "/journal.wal"))
                           .records;
  const std::size_t tail = j.pristine_records.size();
  if (!run.header_valid || run.records.size() < tail) {
    throw std::runtime_error("the run's journal does not extend the store's");
  }
  j.epoch = run.epoch;
  j.frames.assign(run.records.begin() + static_cast<std::ptrdiff_t>(tail),
                  run.records.end());
  j.ops = frame_ops(*in.load, j.frames);
  return j;
}

// ---- cli and replica: one copy of the pre-built store -------------------------

/// `cli::Interpreter::execute` over the op stream, then
/// `replica::JournalShipper::on_frame` (no follower subscribed) over the
/// run's frames, on the same in-process session.
void cli_and_ship_replay(const TraceInputs& in, const RunJournal& journal,
                         SpanLog& spans, std::vector<Metric>& out) {
  const std::string dir = in.work_dir + "/cli";
  clone_store(in.pristine_dir, dir);
  std::vector<double> reads;
  std::vector<double> writes;
  std::vector<double> ship_us;
  {
    herc::core::DesignSession session(store_schema(dir));
    session.open_storage(dir);
    std::vector<std::ostringstream> sinks(in.load->clients.size());
    std::vector<std::unique_ptr<herc::cli::Interpreter>> interps;
    for (auto& sink : sinks) {
      interps.push_back(
          std::make_unique<herc::cli::Interpreter>(sink, session));
    }
    const std::uint32_t phase = spans.open("replay.cli");
    const std::int64_t deadline = now_ns() + kReplayNs;
    for (const Sent& s : send_order(*in.load)) {
      if (now_ns() > deadline) break;
      const Op& op = in.load->clients[s.client].ops[s.k];
      if (op.cls != OpClass::kRead) {
        session.set_user("d" + std::to_string(s.client));
      }
      const std::int64_t t0 = now_ns();
      interps[s.client]->execute(op.line, op.body);
      const std::int64_t t1 = now_ns();
      sinks[s.client].str(std::string());
      spans.add("cli::Interpreter::execute", op_id(s.client, s.k), phase, t0,
                t1);
      if (op.cls == OpClass::kRead) reads.push_back(micros(t0, t1));
      if (op.cls == OpClass::kWrite) writes.push_back(micros(t0, t1));
    }
    spans.close(phase);

    herc::replica::JournalShipper shipper(session);
    const std::uint32_t ship = spans.open("replay.ship");
    const std::size_t tail = journal.pristine_records.size();
    for (std::size_t i = 0; i < journal.frames.size(); ++i) {
      const std::int64_t t0 = now_ns();
      shipper.on_frame(journal.epoch, tail + i, journal.frames[i]);
      const std::int64_t t1 = now_ns();
      ship_us.push_back(micros(t0, t1));
      spans.add("replica::JournalShipper::on_frame", journal.ops[i], ship, t0,
                t1);
    }
    spans.close(ship);
  }
  fs::remove_all(dir);
  add_quantile(out, "cli.read_exec_p50_us", reads, 0.5);
  add_quantile(out, "cli.write_exec_p50_us", writes, 0.5);
  // A hand-off to no follower takes tens of nanoseconds, so the median
  // of whole-nanosecond timings would repeat from run to run; the mean
  // keeps its digits.
  if (!ship_us.empty()) {
    double total = 0;
    for (const double us : ship_us) total += us;
    out.push_back({"replica.ship_frame_us",
                   total / static_cast<double>(ship_us.size()), "us",
                   ship_us.size()});
  }
}

// ---- history: every browse page the workload issued ---------------------------

std::string path_name(herc::history::AccessPath path) {
  switch (path) {
    case herc::history::AccessPath::kScan:
      return "scan";
    case herc::history::AccessPath::kType:
      return "type";
    case herc::history::AccessPath::kKeyword:
      return "keyword";
    case herc::history::AccessPath::kUser:
      return "user";
    case herc::history::AccessPath::kDate:
      return "date";
    case herc::history::AccessPath::kUses:
      return "uses";
  }
  return "unknown";
}

void page_replay(const TraceInputs& in, herc::core::DesignSession& session,
                 SpanLog& spans, std::vector<Metric>& out) {
  const herc::history::HistoryDb& db = session.db();
  std::map<herc::history::AccessPath, std::vector<double>> by_path;
  std::vector<double> all;
  std::size_t examined = 0;
  std::size_t rows = 0;
  const std::uint32_t phase = spans.open("replay.history");
  const std::int64_t deadline = now_ns() + kReplayNs;
  for (const Sent& s : send_order(*in.load)) {
    if (now_ns() > deadline) break;
    const Op& op = in.load->clients[s.client].ops[s.k];
    if (!op.browse) continue;
    const herc::history::QueryFilter filter =
        op.browse->filter(session.schema());
    std::optional<herc::history::PageCursor> after;
    if (op.browse->after) {
      after = herc::history::PageCursor::decode(*op.browse->after);
    }
    const herc::history::AccessPath path =
        herc::history::plan_query(db, filter, session.indexes()).path;
    const std::int64_t t0 = now_ns();
    const herc::history::QueryPage page = herc::history::run_page(
        db, filter, session.indexes(), op.browse->limit, after);
    const std::int64_t t1 = now_ns();
    spans.add("history::run_page", op_id(s.client, s.k), phase, t0, t1);
    by_path[path].push_back(micros(t0, t1));
    all.push_back(micros(t0, t1));
    examined += page.candidates_examined;
    rows += page.ids.size();
  }
  spans.close(phase);
  add_quantile(out, "history.page_p50_us", all, 0.5);
  for (const auto& [path, samples] : by_path) {
    add_quantile(out, "history.page_" + path_name(path) + "_p50_us", samples,
                 0.5);
  }
  if (rows > 0) {
    out.push_back({"history.examined_per_row",
                   static_cast<double>(examined) / static_cast<double>(rows),
                   "ratio", rows});
  }
}

// ---- storage, index, history apply: the run's journal ------------------------

void journal_replays(const TraceInputs& in, const RunJournal& journal,
                     SpanLog& spans, std::vector<Metric>& out) {
  const std::vector<std::string>& frames = journal.frames;
  const std::vector<std::string>& ops = journal.ops;
  const herc::schema::TaskSchema schema = store_schema(in.pristine_dir);
  herc::support::SystemClock clock;

  // storage::DurableHistory construction: snapshot parse + journal replay.
  std::vector<double> open_s;
  std::unique_ptr<herc::storage::DurableHistory> store;
  std::string dir;
  for (int r = 0; r < kRepeats; ++r) {
    store.reset();
    if (!dir.empty()) fs::remove_all(dir);
    dir = in.work_dir + "/open" + std::to_string(r);
    clone_store(in.pristine_dir, dir);
    const std::int64_t t0 = now_ns();
    store = std::make_unique<herc::storage::DurableHistory>(schema, clock, dir);
    open_s.push_back(seconds(t0, now_ns()));
  }
  add_median(out, "storage.open_s", open_s, "s");

  // index::HistoryIndexes: open the saved image, and rebuild from scratch.
  std::vector<double> index_open_s;
  std::vector<double> rebuild_s;
  for (int r = 0; r < kRepeats; ++r) {
    herc::index::HistoryIndexes idx(store->db());
    const std::int64_t t0 = now_ns();
    (void)idx.open(dir, store->epoch(), journal.pristine_records);
    index_open_s.push_back(seconds(t0, now_ns()));
  }
  auto idx = std::make_unique<herc::index::HistoryIndexes>(store->db());
  for (int r = 0; r < kRepeats; ++r) {
    const std::int64_t t0 = now_ns();
    idx->rebuild();
    rebuild_s.push_back(seconds(t0, now_ns()));
  }
  add_median(out, "index.open_s", index_open_s, "s");
  add_median(out, "index.rebuild_s", rebuild_s, "s");

  // history::HistoryDb::apply_saved_line per line and
  // index::HistoryIndexes::on_lines per frame, replaying the run's frames
  // onto the pre-built history (the index is fed by hand, not attached).
  std::vector<double> apply_us;
  std::vector<double> on_lines_us;
  const std::uint32_t apply_phase = spans.open("replay.journal");
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const std::int64_t t0 = now_ns();
    for (const std::string& line : herc::support::split(frames[i], '\n')) {
      if (line.empty()) continue;
      const std::int64_t l0 = now_ns();
      store->db().apply_saved_line(line);
      apply_us.push_back(micros(l0, now_ns()));
    }
    const std::int64_t t1 = now_ns();
    idx->on_lines(frames[i]);
    const std::int64_t t2 = now_ns();
    on_lines_us.push_back(micros(t1, t2));
    spans.add("history::HistoryDb::apply_saved_line", ops[i], apply_phase, t0,
              t1);
    spans.add("index::HistoryIndexes::on_lines", ops[i], apply_phase, t1, t2);
  }
  spans.close(apply_phase);
  idx.reset();
  store.reset();
  fs::remove_all(dir);
  add_quantile(out, "history.apply_line_us", apply_us, 0.5);
  add_quantile(out, "index.on_lines_us", on_lines_us, 0.5);

  // storage::Journal::append under the server's default sync policy.
  std::vector<double> append_us;
  {
    const std::string path = in.work_dir + "/append.wal";
    herc::storage::Journal fresh = herc::storage::Journal::create(
        path, journal.epoch, herc::storage::JournalOptions{});
    const std::uint32_t phase = spans.open("replay.append");
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const std::int64_t t0 = now_ns();
      fresh.append(frames[i]);
      const std::int64_t t1 = now_ns();
      append_us.push_back(micros(t0, t1));
      spans.add("storage::Journal::append", ops[i], phase, t0, t1);
    }
    spans.close(phase);
  }
  fs::remove(in.work_dir + "/append.wal");
  add_quantile(out, "storage.append_p50_us", append_us, 0.5);
  add_quantile(out, "storage.append_p99_us", append_us, 0.99);

  std::size_t writes = 0;
  for (const ClientLog& c : in.load->clients) {
    for (const OpRecord& r : c.records) {
      writes += r.ok && r.cls != OpClass::kRead ? 1 : 0;
    }
  }
  std::size_t bytes = 0;
  for (const std::string& f : frames) {
    bytes += f.size() + herc::storage::kFrameHeaderBytes;
  }
  if (writes > 0) {
    out.push_back({"storage.frames_per_write",
                   static_cast<double>(frames.size()) /
                       static_cast<double>(writes),
                   "frames", writes});
    out.push_back({"storage.bytes_per_write",
                   static_cast<double>(bytes) / static_cast<double>(writes),
                   "bytes", writes});
  }

}

// ---- exec: the workload's flows, run in-process -------------------------------

/// Tasks on the longest dependency chain ending at `node`.
std::size_t chain_depth(const herc::graph::TaskGraph& flow,
                        herc::graph::NodeId node) {
  if (flow.is_leaf(node)) return 0;
  std::size_t deepest = 0;
  for (const herc::graph::NodeId in : flow.inputs_of(node)) {
    deepest = std::max(deepest, chain_depth(flow, in));
  }
  const herc::graph::NodeId tool = flow.tool_of(node);
  if (tool.valid()) deepest = std::max(deepest, chain_depth(flow, tool));
  return deepest + 1;
}

void exec_replay(const TraceInputs& in, herc::core::DesignSession& session,
                 SpanLog& spans, std::vector<Metric>& out) {
  std::vector<double> run_us;
  std::vector<double> overhead_us;
  std::vector<double> frames;
  std::ostringstream sink;
  const std::uint32_t phase = spans.open("replay.exec");
  const std::int64_t deadline = now_ns() + kReplayNs;
  for (std::size_t c = 0; c < in.load->clients.size(); ++c) {
    const ClientLog& log = in.load->clients[c];
    herc::cli::Interpreter interp(sink, session);
    for (std::size_t k = 0; k < log.ops.size() && now_ns() < deadline; ++k) {
      const Op& op = log.ops[k];
      if (op.cls == OpClass::kRead && op.line.rfind("flow ", 0) == 0) {
        interp.execute(op.line);  // rebuild the flow in this workspace
        continue;
      }
      if (op.cls != OpClass::kRun || !log.records[k].ok) continue;
      const std::string flow_name = herc::support::split_ws(op.line).at(1);
      const herc::graph::TaskGraph& flow = interp.named_flows().at(flow_name);
      herc::exec::ExecOptions options;
      options.parallel = true;
      options.task_latency = std::chrono::milliseconds(kRunLatencyMs);
      std::size_t depth = 0;
      for (const herc::graph::NodeId goal : flow.goals()) {
        depth = std::max(depth, chain_depth(flow, goal));
      }
      const std::uint64_t seq0 = session.storage()->journal_seq();
      const std::int64_t t0 = now_ns();
      const herc::exec::ExecResult result = session.run(flow, options);
      const std::int64_t t1 = now_ns();
      if (!result.complete()) {
        throw std::runtime_error("exec replay: '" + flow_name +
                                 "' did not complete");
      }
      spans.add("core::DesignSession::run", op_id(c, k), phase, t0, t1);
      run_us.push_back(micros(t0, t1));
      overhead_us.push_back(micros(t0, t1) -
                            static_cast<double>(depth * kRunLatencyMs) * 1e3);
      frames.push_back(
          static_cast<double>(session.storage()->journal_seq() - seq0));
      sink.str(std::string());
    }
  }
  spans.close(phase);
  add_quantile(out, "exec.run_p50_us", run_us, 0.5);
  add_quantile(out, "exec.overhead_p50_us", overhead_us, 0.5);
  add_median(out, "exec.frames_per_run", frames, "frames");
}

}  // namespace

void record_call_spans(const LoadResult& load, SpanLog& spans) {
  for (std::size_t c = 0; c < load.clients.size(); ++c) {
    const ClientLog& log = load.clients[c];
    for (std::size_t k = 0; k < log.ops.size(); ++k) {
      const OpRecord& r = log.records[k];
      if (!r.measured) continue;
      const std::string verb = herc::support::split_ws(log.ops[k].line).at(0);
      spans.add("server::Client::call " + verb, op_id(c, k), 0, r.start_ns,
                r.end_ns);
    }
  }
}

std::vector<double> probe_rtt(herc::server::Client& client,
                              std::size_t count) {
  std::vector<double> samples;
  samples.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::int64_t t0 = now_ns();
    const herc::server::CallResult r = client.call("replicas");
    const std::int64_t t1 = now_ns();
    if (!r.ok()) throw std::runtime_error("replicas failed: " + r.error);
    samples.push_back(micros(t0, t1));
  }
  return samples;
}

std::vector<Metric> measure_layers(const TraceInputs& in,
                                   herc::core::DesignSession& final_session,
                                   SpanLog& spans) {
  std::vector<Metric> out;
  window_metrics(in, out);
  page_replay(in, final_session, spans, out);
  const RunJournal journal = read_run_journal(in);
  cli_and_ship_replay(in, journal, spans, out);
  journal_replays(in, journal, spans, out);
  if (in.workload == Workload::kRuns) {
    exec_replay(in, final_session, spans, out);
  }
  return out;
}

}  // namespace perfbench
