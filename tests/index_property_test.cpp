// Index crash-recovery properties, swept exhaustively:
//
//   1. JOURNAL truncated at every byte offset: for each offset the frame
//      recovery yields some k-frame prefix (the per-byte frame mapping is
//      proved in storage_property_test); here, at every distinct k, three
//      independently derived indexes — incrementally maintained through
//      a store's change feed, loaded-from-file + caught up from the journal
//      tail, and rebuilt cold from the recovered database — must answer
//      every predicate class identically to the verified table scan.
//   2. INDEX FILE truncated at every byte offset: `IndexImage::parse`
//      must reject every proper prefix (header/checksum discipline), and
//      `HistoryIndexes::open` on sampled truncations must fall back to a
//      rebuild whose answers are again scan-exact.  The index can never
//      be wrong, only cold.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "history/history_db.hpp"
#include "history/query_planner.hpp"
#include "index/indexes.hpp"
#include "property_seed.hpp"
#include "schema/standard_schemas.hpp"
#include "storage/journal.hpp"
#include "storage/store.hpp"
#include "support/text.hpp"

namespace herc::index {
namespace {

namespace fs = std::filesystem;
using data::InstanceId;
using history::HistoryDb;
using history::QueryFilter;
using history::RecordRequest;

constexpr std::size_t kMutations = 220;
constexpr std::uint64_t kSeedFallback = 0x5851f42d4c957f2dULL;

std::uint64_t next_rand(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

/// Deterministic mutation mix touching every index section: imports across
/// types/users, derived records (adjacency), annotation renames (stale
/// postings), quarantines (token injection).
void mutate(HistoryDb& db, const schema::TaskSchema& schema,
            std::uint64_t seed) {
  const InstanceId editor =
      db.import_instance(schema.require("CircuitEditor"), "ed", "tool", "ops");
  std::vector<InstanceId> pool;
  std::uint64_t rng = seed;
  const std::vector<std::string> users = {"alice", "bob", "carol"};
  for (std::size_t i = 1; i < kMutations; ++i) {
    const std::uint64_t pick = next_rand(rng) % 10;
    const std::string& user = users[next_rand(rng) % users.size()];
    if (pick < 4 || pool.empty()) {
      const bool stim = next_rand(rng) % 3 == 0;
      pool.push_back(db.import_instance(
          schema.require(stim ? "Stimuli" : "EditedNetlist"),
          (stim ? "wave " : "net ") + std::to_string(i),
          support::numbered("p", next_rand(rng) % 5), user));
    } else if (pick < 7) {
      RecordRequest edit;
      edit.type = schema.require("EditedNetlist");
      edit.name = "edit " + std::to_string(i);
      edit.user = user;
      edit.payload = "q" + std::to_string(next_rand(rng) % 5);
      edit.derivation.tool = editor;
      edit.derivation.inputs = {pool[next_rand(rng) % pool.size()]};
      edit.derivation.input_roles = {""};
      edit.derivation.task = "edit";
      pool.push_back(db.record(edit));
    } else if (pick < 9) {
      db.annotate(pool[next_rand(rng) % pool.size()],
                  "renamed " + std::to_string(i), "tuned");
    } else {
      const InstanceId victim = pool[next_rand(rng) % pool.size()];
      if (db.instance(victim).ok()) db.quarantine(victim, "drift");
    }
  }
}

/// The predicate classes every index variant must answer exactly.
std::vector<QueryFilter> probes(const schema::TaskSchema& schema,
                                const HistoryDb& db) {
  std::vector<QueryFilter> out;
  QueryFilter f;
  f.keyword = "wave";
  out.push_back(f);
  f = QueryFilter{};
  f.keyword = "renamed";  // annotation-added tokens
  out.push_back(f);
  f = QueryFilter{};
  f.user = "carol";
  out.push_back(f);
  f = QueryFilter{};
  f.type = schema.require("Netlist");
  out.push_back(f);
  if (db.size() > 4) {
    f = QueryFilter{};
    f.from = db.instance(InstanceId(1)).created;
    f.to = db.instance(InstanceId(
                           static_cast<std::uint32_t>(db.size() / 2)))
               .created;
    out.push_back(f);
  }
  if (db.size() > 1) {
    f = QueryFilter{};
    f.uses = InstanceId(1);  // the first pool member, input to early edits
    f.include_failures = true;
    out.push_back(f);
  }
  return out;
}

/// Asserts `index` answers every probe identically to the bare scan,
/// including a paged walk of the first probe.
void expect_scan_exact(const schema::TaskSchema& schema, const HistoryDb& db,
                       const history::SecondaryIndex* index,
                       const std::string& what) {
  for (const QueryFilter& f : probes(schema, db)) {
    const auto indexed = history::run_page(db, f, index, 10000);
    const auto scanned = history::run_page(db, f, nullptr, 10000);
    ASSERT_EQ(indexed.ids, scanned.ids)
        << what << ", plan " << indexed.plan.describe();
  }
  if (db.size() == 0) return;
  QueryFilter walk;
  walk.keyword = "e";  // unindexable (too short): exercises scan+cursor
  std::vector<InstanceId> paged;
  std::optional<history::PageCursor> cursor;
  for (;;) {
    const auto page = history::run_page(db, walk, index, 7, cursor);
    paged.insert(paged.end(), page.ids.begin(), page.ids.end());
    if (!page.next) break;
    cursor = page.next;
  }
  const auto whole = history::run_page(db, walk, nullptr, 100000);
  ASSERT_EQ(paged, whole.ids) << what << " (paged walk)";
}

HistoryDb apply_records(const schema::TaskSchema& schema,
                        support::Clock& clock,
                        const std::vector<std::string>& records,
                        std::size_t count) {
  HistoryDb db(schema, clock);
  for (std::size_t i = 0; i < count; ++i) {
    for (const std::string& line : support::split(records[i], '\n')) {
      db.apply_saved_line(line);
    }
  }
  return db;
}

TEST(IndexPropertyTest, EveryJournalTruncationConvergesAllThreeWays) {
  const std::uint64_t seed = testprop::base_seed(kSeedFallback);
  SCOPED_TRACE(testprop::seed_note(seed));
  const schema::TaskSchema schema = schema::make_fig1_schema();
  const std::string dir =
      (fs::temp_directory_path() / "herc_index_property").string();
  fs::remove_all(dir);

  std::uint64_t epoch = 0;
  {
    support::ManualClock clock(100, 10);
    storage::StoreOptions options;
    options.journal.sync = storage::SyncPolicy::kNone;
    storage::DurableHistory store(schema, clock, dir, options);
    mutate(store.db(), schema, seed);
    // The quarantine branch is a no-op on non-OK picks, so the journaled
    // count is seed-dependent; the scan below is the reference.
    ASSERT_GE(store.records_journaled(), kMutations / 2);
    epoch = store.epoch();
  }
  std::string bytes;
  {
    std::ifstream in((fs::path(dir) / "journal.wal").string(),
                     std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  const storage::ScanResult reference = storage::scan_journal(bytes);
  ASSERT_TRUE(reference.header_valid);
  const std::size_t total = reference.records.size();

  // A mid-history index file: prefixes past kSavedAt exercise load+catchup,
  // prefixes before it exercise the seq-ahead rebuild.
  const std::size_t kSavedAt = total / 2;
  const std::string save_dir = dir + "_saved";
  fs::remove_all(save_dir);
  fs::create_directories(save_dir);
  {
    support::ManualClock clock(0, 1);
    HistoryDb at_save =
        apply_records(schema, clock, reference.records, kSavedAt);
    HistoryIndexes writer(at_save);
    writer.rebuild();
    writer.save(save_dir, epoch, kSavedAt);
  }

  // The incrementally maintained index follows the change feed of one
  // growing store, fed frame by frame as a follower is.
  support::ManualClock grow_clock(0, 1);
  const std::string grow_dir = dir + "_grow";
  fs::remove_all(grow_dir);
  storage::StoreOptions grow_options;
  grow_options.journal.sync = storage::SyncPolicy::kNone;
  storage::DurableHistory grow_store(schema, grow_clock, grow_dir,
                                     grow_options);
  HistoryDb& grow = grow_store.db();
  HistoryIndexes live(grow);
  live.rebuild();
  grow_store.subscribe(live);

  // Sweep every byte offset; the recovered frame count changes only at
  // frame boundaries, so the (expensive) three-way convergence check runs
  // once per distinct k — which still covers every byte offset, because
  // recovery is a pure function of the recovered frame list.
  std::size_t checked = 0;
  std::size_t frames_seen = 0;
  const std::string_view view(bytes);
  for (std::size_t t = storage::kJournalHeaderBytes; t <= bytes.size(); ++t) {
    const storage::ScanResult scan = storage::scan_journal(view.substr(0, t));
    ASSERT_TRUE(scan.header_valid) << "offset " << t;
    const std::size_t k = scan.records.size();
    if (k < frames_seen) FAIL() << "frame count regressed at " << t;
    if (k == frames_seen && t != storage::kJournalHeaderBytes) continue;
    frames_seen = k;
    ++checked;

    // (a) incremental: feed the newly completed frame to the live index.
    if (k > 0) grow_store.apply_frame(scan.records[k - 1]);
    expect_scan_exact(schema, grow, &live,
                      "incremental @" + std::to_string(k));

    // (b) load + catch up (or seq-ahead rebuild) on a cold recovery.
    support::ManualClock clock(0, 1);
    HistoryDb recovered = apply_records(schema, clock, scan.records, k);
    ASSERT_EQ(recovered.size(), grow.size()) << "frames " << k;
    HistoryIndexes opened(recovered);
    const auto report = opened.open(save_dir, epoch, scan.records);
    if (k >= kSavedAt) {
      ASSERT_TRUE(report.loaded) << "frames " << k << ": " << report.reason;
      ASSERT_EQ(report.caught_up, k - kSavedAt);
    } else {
      ASSERT_TRUE(report.rebuilt) << "frames " << k;
    }
    expect_scan_exact(schema, recovered, &opened,
                      "opened @" + std::to_string(k));

    // (c) cold rebuild.
    HistoryIndexes rebuilt(recovered);
    rebuilt.rebuild();
    expect_scan_exact(schema, recovered, &rebuilt,
                      "rebuilt @" + std::to_string(k));
  }
  ASSERT_EQ(frames_seen, total);
  ASSERT_EQ(checked, total + 1);

  fs::remove_all(dir);
  fs::remove_all(save_dir);
  fs::remove_all(grow_dir);
}

TEST(IndexPropertyTest, EveryIndexFileTruncationIsRejectedThenRebuilt) {
  const std::uint64_t seed = testprop::base_seed(kSeedFallback);
  SCOPED_TRACE(testprop::seed_note(seed));
  const schema::TaskSchema schema = schema::make_fig1_schema();
  support::ManualClock clock(100, 10);
  HistoryDb db(schema, clock);
  mutate(db, schema, seed);

  HistoryIndexes writer(db);
  writer.rebuild();
  const std::string full = writer.image().serialize();
  ASSERT_GT(full.size(), 100u);

  // Every proper prefix must fail to parse — nothing shorter than the
  // whole file carries a valid checksum.
  IndexImage out;
  std::string error;
  ASSERT_TRUE(IndexImage::parse(full, out, error)) << error;
  for (std::size_t t = 0; t < full.size(); ++t) {
    ASSERT_FALSE(IndexImage::parse(std::string_view(full).substr(0, t), out,
                                   error))
        << "offset " << t;
  }

  // Sampled truncations through the real open() path: detect, rebuild,
  // answer scan-exact.
  const std::string dir =
      (fs::temp_directory_path() / "herc_index_property_file").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::vector<std::string> no_journal;
  std::vector<std::size_t> sampled;
  for (std::size_t t = 0; t < full.size(); t += 173) sampled.push_back(t);
  for (std::size_t back = 1; back <= 8 && back <= full.size(); ++back) {
    sampled.push_back(full.size() - back);
  }
  for (const std::size_t t : sampled) {
    {
      std::ofstream outf(HistoryIndexes::file_path(dir),
                         std::ios::binary | std::ios::trunc);
      outf.write(full.data(), static_cast<std::streamsize>(t));
    }
    HistoryIndexes idx(db);
    const auto report = idx.open(dir, writer.image().epoch, no_journal);
    ASSERT_TRUE(report.rebuilt) << "offset " << t;
    ASSERT_FALSE(report.reason.empty()) << "offset " << t;
    QueryFilter f;
    f.keyword = "wave";
    const auto indexed = history::run_page(db, f, &idx, 10000);
    const auto scanned = history::run_page(db, f, nullptr, 10000);
    ASSERT_EQ(indexed.ids, scanned.ids) << "offset " << t;
  }
  // And the untruncated file loads cleanly at the stamped epoch/seq.
  {
    std::ofstream outf(HistoryIndexes::file_path(dir),
                       std::ios::binary | std::ios::trunc);
    outf << full;
  }
  HistoryIndexes idx(db);
  const auto report = idx.open(dir, writer.image().epoch, no_journal);
  EXPECT_TRUE(report.loaded) << report.reason;
  EXPECT_FALSE(report.rebuilt);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace herc::index
