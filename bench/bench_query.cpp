// Query-planner benchmark: indexed vs scanned predicate latency on a
// large history, plus one-hop derivation chaining both directions and a
// full paginated listing walk.  Emits BENCH_query.json in the working
// directory (EXPERIMENTS S5/S12).
//
// The headline claim: on a 10M-instance history every Fig. 9 browser
// predicate — keyword, creation-date window, user, entity type — and
// one-hop chaining answer in under 10 ms through the secondary indexes,
// at least 100x faster than the verified table scan that computes the
// same rows.  Every indexed page is checked for exact equality against
// the scan before any timing is reported.
//
// Sized by HERC_BENCH_QUERY_N (default 200k, where the ratios are smaller
// but the parity checks are the same; EXPERIMENTS.md S14 records a 10M
// run).  The <10ms / >=100x gates are enforced from 1M up.
//
// The index's own footprint is reported too: `index_rss_mb`, the growth of
// the process's resident set across `HistoryIndexes::rebuild()` (Linux
// VmRSS; -1 where /proc is missing), and `index_load_ms`, the time to save
// the image and then `load_image` and `open` it again.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "history/history_db.hpp"
#include "history/query_planner.hpp"
#include "index/indexes.hpp"
#include "schema/standard_schemas.hpp"
#include "support/clock.hpp"

namespace {

using namespace herc;
using data::InstanceId;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct PredicateResult {
  std::string name;
  double indexed_ms = 0;   // mean per query, planner through the index
  double scan_ms = 0;      // mean per query, verified table scan
  double speedup = 0;
  std::size_t rows = 0;    // rows on the measured page
  std::string plan;        // access path the planner chose
};

/// The verified table scan `run_page` would execute with no index:
/// newest-first over every id, re-checking the full predicate.  Hand
/// rolled so the uses-predicate comparison is a true scan too (the
/// planner serves `uses` from the db's dependency lists even without an
/// index, which is the optimization — not the baseline).
std::vector<InstanceId> scan_page(const history::HistoryDb& db,
                                  const history::QueryFilter& filter,
                                  std::size_t limit) {
  std::vector<InstanceId> out;
  for (std::size_t i = db.size(); i-- > 0 && out.size() < limit;) {
    const InstanceId id(static_cast<std::uint32_t>(i));
    if (history::matches(db, filter, id)) out.push_back(id);
  }
  return out;
}

/// The process's resident set in MB (VmRSS), or -1 when unknown.
double rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) != 0) continue;
    std::istringstream fields(line.substr(6));
    double kib = 0;
    if (fields >> kib) return kib / 1024;
  }
  return -1;
}

}  // namespace

int main() {
  std::size_t n = 200000;
  if (const char* env = std::getenv("HERC_BENCH_QUERY_N")) {
    n = static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
  }
  const bool enforce = n >= 1000000;
  // Rarity scaled so rare predicates select ~0.01% of the table whatever
  // the size (1k hits at 10M) and the derived minority stays at 0.1%.
  const std::size_t kKeywordEvery = std::max<std::size_t>(n / 1000, 1);
  const std::size_t kUserEvery = std::max<std::size_t>(n / 1000, 1);
  const std::size_t kStimuliEvery = std::max<std::size_t>(n / 2000, 1);
  const std::size_t kPerfEvery = std::max<std::size_t>(n / 1000, 1);

  const schema::TaskSchema schema = schema::make_full_schema();
  const schema::EntityTypeId netlist_t = schema.require("EditedNetlist");
  const schema::EntityTypeId stimuli_t = schema.require("Stimuli");
  const schema::EntityTypeId perf_t = schema.require("Performance");

  support::ManualClock clock(718000000000000LL, 1000);
  history::HistoryDb db(schema, clock);

  std::printf("bench_query: populating %zu instances...\n", n);
  auto start = Clock::now();
  // One shared "hub" stimuli every Performance uses: its dependent list is
  // the forward-chaining workload.
  const InstanceId hub =
      db.import_instance(stimuli_t, "hub_waves", "w", "bench");
  InstanceId last_netlist;
  std::vector<InstanceId> perfs;
  while (db.size() < n) {
    const std::size_t i = db.size();
    if (i % kPerfEvery == 0 && last_netlist.valid()) {
      history::RecordRequest req;
      req.type = perf_t;
      req.name = "perf" + std::to_string(i);
      req.user = "bench";
      req.derivation.inputs = {last_netlist, hub};
      req.derivation.input_roles = {"circuit", "stimuli"};
      req.derivation.task = "Simulator";
      perfs.push_back(db.record(req));
      continue;
    }
    std::string name = "n" + std::to_string(i);
    if (i % kKeywordEvery == 1) name += "_hotspot";
    const char* user = i % kUserEvery == 2 ? "rare_user" : "bench";
    if (i % kStimuliEvery == 3) {
      db.import_instance(stimuli_t, name, "w", user);
    } else {
      last_netlist = db.import_instance(netlist_t, name, "", user);
    }
  }
  const double populate_ms = ms_since(start);

  start = Clock::now();
  const double rss_before = rss_mb();
  index::HistoryIndexes indexes(db);
  indexes.rebuild();
  const double rss_after = rss_mb();
  const double rebuild_ms = ms_since(start);
  const double index_rss_mb =
      rss_before < 0 || rss_after < 0 ? -1 : rss_after - rss_before;
  std::printf("  populate %.0f ms, index rebuild %.0f ms, +%.1f MB resident\n",
              populate_ms, rebuild_ms, index_rss_mb);

  bool failed = false;
  // Save the image, then read it back the way a store open does.
  const std::string image_dir =
      (std::filesystem::temp_directory_path() / "herc_bench_query_index")
          .string();
  std::filesystem::remove_all(image_dir);
  std::filesystem::create_directories(image_dir);
  start = Clock::now();
  indexes.save(image_dir, 0, 0);
  index::HistoryIndexes reopened(db);
  const index::HistoryIndexes::OpenReport reopen =
      reopened.open(index::HistoryIndexes::load_image(image_dir), 0, {});
  const double index_load_ms = ms_since(start);
  std::filesystem::remove_all(image_dir);
  if (!reopen.loaded ||
      reopened.image().serialize() != indexes.image().serialize()) {
    std::fprintf(stderr, "FAIL: saved index image did not load back (%s)\n",
                 reopen.reason.c_str());
    failed = true;
  }
  std::printf("  index save + load + open %.0f ms\n", index_load_ms);

  // A ~0.01% date window, bounds read off real instances.
  const std::size_t win_lo = n / 2;
  const std::size_t win_hi = win_lo + std::max<std::size_t>(n / 1000, 2) - 1;
  history::QueryFilter by_keyword, by_user, by_date, by_type, by_uses;
  by_keyword.keyword = "hotspot";
  by_user.user = "rare_user";
  by_date.from = db.instance(InstanceId(static_cast<std::uint32_t>(win_lo)))
                     .created;
  by_date.to = db.instance(InstanceId(static_cast<std::uint32_t>(win_hi)))
                   .created;
  by_type.type = stimuli_t;
  by_uses.uses = hub;

  constexpr std::size_t kPage = 100;
  const std::vector<std::pair<std::string, const history::QueryFilter*>>
      predicates = {{"keyword", &by_keyword},
                    {"user", &by_user},
                    {"date", &by_date},
                    {"type", &by_type},
                    {"chain_forward", &by_uses}};

  std::vector<PredicateResult> results;
  for (const auto& [name, filter] : predicates) {
    PredicateResult r;
    r.name = name;
    // Parity first: the indexed page must equal the verified scan's.
    const history::QueryPage indexed =
        history::run_page(db, *filter, &indexes, kPage);
    const std::vector<InstanceId> scanned = scan_page(db, *filter, kPage);
    if (indexed.ids != scanned) {
      std::fprintf(stderr, "FAIL: '%s' indexed page != scan page\n",
                   name.c_str());
      failed = true;
      continue;
    }
    r.rows = indexed.ids.size();
    r.plan = indexed.plan.describe();

    const std::size_t reps = 50;
    start = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) {
      (void)history::run_page(db, *filter, &indexes, kPage);
    }
    r.indexed_ms = ms_since(start) / static_cast<double>(reps);

    const std::size_t scan_reps = n > 1000000 ? 2 : 5;
    start = Clock::now();
    for (std::size_t i = 0; i < scan_reps; ++i) (void)scan_page(db, *filter, kPage);
    r.scan_ms = ms_since(start) / static_cast<double>(scan_reps);
    r.speedup = r.indexed_ms > 0 ? r.scan_ms / r.indexed_ms : 0;
    std::printf("  %-14s indexed %8.3f ms  scan %9.2f ms  %7.0fx  [%s]\n",
                name.c_str(), r.indexed_ms, r.scan_ms, r.speedup,
                r.plan.c_str());
    if (enforce && (r.indexed_ms >= 10.0 || r.speedup < 100.0)) {
      std::fprintf(stderr,
                   "FAIL: '%s' needs <10 ms indexed and >=100x over scan\n",
                   name.c_str());
      failed = true;
    }
    results.push_back(r);
  }

  // Backward chaining: one hop from a Performance to its derivation
  // inputs (db-native, no index involved — reported for completeness).
  double chain_backward_us = 0;
  if (!perfs.empty()) {
    start = Clock::now();
    std::size_t edges = 0;
    for (const InstanceId p : perfs) {
      edges += db.instance(p).derivation.inputs.size();
    }
    chain_backward_us =
        ms_since(start) * 1000.0 / static_cast<double>(perfs.size());
    if (edges == 0) failed = true;
  }

  // Stream the full netlist listing page by page: bounded memory (one
  // page at a time), every row exactly once.
  history::QueryFilter all_netlists;
  all_netlists.type = netlist_t;
  start = Clock::now();
  std::size_t walked = 0, pages = 0;
  std::optional<history::PageCursor> cursor;
  for (;;) {
    const history::QueryPage page =
        history::run_page(db, all_netlists, &indexes, 1000, cursor);
    walked += page.ids.size();
    ++pages;
    if (!page.next) break;
    cursor = page.next;
  }
  const double walk_ms = ms_since(start);
  const std::vector<InstanceId> expected_all =
      scan_page(db, all_netlists, db.size());
  if (walked != expected_all.size()) {
    std::fprintf(stderr, "FAIL: paginated walk saw %zu rows, scan %zu\n",
                 walked, expected_all.size());
    failed = true;
  }
  std::printf("  paginated walk  %zu rows in %zu pages, %.0f ms\n", walked,
              pages, walk_ms);
  std::printf("  chain backward  %.3f us per instance\n", chain_backward_us);

  std::ofstream json("BENCH_query.json", std::ios::trunc);
  json << "{\n  \"instances\": " << n << ",\n  \"page_rows\": " << kPage
       << ",\n  \"populate_ms\": " << populate_ms
       << ",\n  \"index_rebuild_ms\": " << rebuild_ms
       << ",\n  \"index_rss_mb\": " << index_rss_mb
       << ",\n  \"index_load_ms\": " << index_load_ms
       << ",\n  \"predicates\": {";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const PredicateResult& r = results[i];
    json << (i == 0 ? "" : ",") << "\n    \"" << r.name
         << "\": {\"indexed_ms\": " << r.indexed_ms
         << ", \"scan_ms\": " << r.scan_ms << ", \"speedup\": " << r.speedup
         << ", \"rows\": " << r.rows << ", \"plan\": \"" << r.plan << "\"}";
  }
  json << "\n  },\n  \"chain_backward_us_per_instance\": "
       << chain_backward_us << ",\n  \"listing_walk\": {\"rows\": " << walked
       << ", \"pages\": " << pages << ", \"total_ms\": " << walk_ms
       << "}\n}\n";
  json.close();
  std::printf("  -> BENCH_query.json\n");
  return failed ? 1 : 0;
}
