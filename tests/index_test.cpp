// The secondary indexes (src/index) and the query planner they feed:
// tokenization, planner path choice, index/scan parity, cursor pagination,
// annotation staleness (candidate supersets stay exact through
// verification), persistence round trips, skew-triggered rebuilds, and the
// store's change feed that keeps replicas' indexes current.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "history/history_db.hpp"
#include "history/query_planner.hpp"
#include "index/indexes.hpp"
#include "schema/standard_schemas.hpp"
#include "storage/store.hpp"
#include "support/clock.hpp"
#include "support/text.hpp"

namespace herc::index {
namespace {

namespace fs = std::filesystem;
using data::InstanceId;
using history::AccessPath;
using history::HistoryDb;
using history::PageCursor;
using history::QueryFilter;
using history::QueryPage;
using history::RecordRequest;

std::string scratch(const std::string& name) {
  const std::string dir = (fs::temp_directory_path() / name).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// A small mixed history: imports across types/users, one derived record,
/// one annotation rename — enough to light up every index section.
void populate(HistoryDb& db, const schema::TaskSchema& schema) {
  const auto netlist = schema.require("EditedNetlist");
  const auto stimuli = schema.require("Stimuli");
  const auto perf = schema.require("Performance");
  const InstanceId sim =
      db.import_instance(schema.require("Simulator"), "spice", "bin", "ops");
  const InstanceId n0 =
      db.import_instance(netlist, "low pass filter", "aa", "alice");
  const InstanceId waves =
      db.import_instance(stimuli, "square waves", "bb", "bob");
  db.import_instance(netlist, "high pass filter", "cc", "alice", "tuned");
  RecordRequest run;
  run.type = perf;
  run.name = "filter gain";
  run.user = "bob";
  run.derivation.tool = sim;
  run.derivation.inputs = {n0, waves};
  run.derivation.input_roles = {"circuit", "stimuli"};
  run.derivation.task = "Simulator";
  db.record(run);
  db.import_instance(stimuli, "noise burst", "dd", "carol");
}

/// Runs `filter` through the index and through the bare scan; asserts the
/// pages agree and returns the verified ids.
std::vector<InstanceId> exact(const HistoryDb& db, const QueryFilter& filter,
                              const history::SecondaryIndex* index,
                              std::size_t limit = 100) {
  const QueryPage indexed = history::run_page(db, filter, index, limit);
  const QueryPage scanned = history::run_page(db, filter, nullptr, limit);
  EXPECT_EQ(indexed.ids, scanned.ids)
      << "plan " << indexed.plan.describe();
  return indexed.ids;
}

TEST(IndexTest, TokenizeLowercasesAndSplitsOnNonTokenChars) {
  EXPECT_EQ(tokenize("Low-pass Filter v2"),
            (std::vector<std::string>{"low", "pass", "filter", "v2"}));
  EXPECT_EQ(tokenize("sw_c3_r1_0"), (std::vector<std::string>{"sw_c3_r1_0"}));
  EXPECT_TRUE(tokenize("  ---  ").empty());
  EXPECT_TRUE(tokenize("").empty());
}

TEST(IndexTest, IndexableKeywordIsOneTokenRun) {
  EXPECT_TRUE(indexable_keyword("filter"));
  EXPECT_TRUE(indexable_keyword("Sw_C3"));  // case-folded before lookup
  EXPECT_FALSE(indexable_keyword("low pass"));
  EXPECT_FALSE(indexable_keyword("low-pass"));
  EXPECT_FALSE(indexable_keyword(""));
}

TEST(IndexTest, PlannerPicksIndexPathsForSelectivePredicates) {
  const schema::TaskSchema schema = schema::make_fig1_schema();
  support::ManualClock clock(1000, 10);
  HistoryDb db(schema, clock);
  populate(db, schema);
  HistoryIndexes idx(db);
  idx.rebuild();

  QueryFilter by_keyword;
  by_keyword.keyword = "filter";
  EXPECT_EQ(history::plan_query(db, by_keyword, &idx).path,
            AccessPath::kKeyword);
  // Without the index the only option is the scan.
  EXPECT_EQ(history::plan_query(db, by_keyword, nullptr).path,
            AccessPath::kScan);

  QueryFilter by_user;
  by_user.user = "carol";
  EXPECT_EQ(history::plan_query(db, by_user, &idx).path, AccessPath::kUser);

  QueryFilter by_type;
  by_type.type = schema.require("Stimuli");
  EXPECT_EQ(history::plan_query(db, by_type, &idx).path, AccessPath::kType);

  QueryFilter by_uses;
  by_uses.uses = InstanceId(1);
  // `uses` rides the database's own forward-derivation index, no
  // secondary index required.
  EXPECT_EQ(history::plan_query(db, by_uses, nullptr).path, AccessPath::kUses);

  // Too short for the trigram map and mixed-charset keywords are
  // unservable: the index declines and the planner falls back to the scan.
  QueryFilter short_kw;
  short_kw.keyword = "lo";
  EXPECT_EQ(idx.estimate(short_kw, AccessPath::kKeyword), std::nullopt);
  EXPECT_EQ(history::plan_query(db, short_kw, &idx).path, AccessPath::kScan);
  QueryFilter phrase;
  phrase.keyword = "pass filter";
  EXPECT_EQ(history::plan_query(db, phrase, &idx).path, AccessPath::kScan);
  // ...and the scan still answers substring queries the index cannot.
  EXPECT_EQ(exact(db, phrase, &idx).size(), 2u);
}

TEST(IndexTest, EveryPredicateClassMatchesTheScan) {
  const schema::TaskSchema schema = schema::make_fig1_schema();
  support::ManualClock clock(1000, 10);
  HistoryDb db(schema, clock);
  populate(db, schema);
  HistoryIndexes idx(db);
  idx.rebuild();

  QueryFilter f;
  f.keyword = "filter";
  EXPECT_EQ(exact(db, f, &idx).size(), 3u);  // both filters + "filter gain"
  f = QueryFilter{};
  f.user = "alice";
  EXPECT_EQ(exact(db, f, &idx).size(), 2u);
  f = QueryFilter{};
  f.type = schema.require("Netlist");  // abstract root: subtypes match
  EXPECT_EQ(exact(db, f, &idx).size(), 2u);
  f = QueryFilter{};
  f.from = db.instance(InstanceId(2)).created;  // inclusive window over
  f.to = db.instance(InstanceId(4)).created;    // the middle three rows
  EXPECT_EQ(exact(db, f, &idx).size(), 3u);
  f = QueryFilter{};
  f.uses = InstanceId(1);
  EXPECT_EQ(exact(db, f, &idx).size(), 1u);
  // Conjunction: keyword + user, verified against both.
  f = QueryFilter{};
  f.keyword = "filter";
  f.user = "alice";
  EXPECT_EQ(exact(db, f, &idx).size(), 2u);
}

TEST(IndexTest, CursorPaginationWalksEveryRowOnce) {
  const schema::TaskSchema schema = schema::make_fig1_schema();
  support::ManualClock clock(1000, 10);
  HistoryDb db(schema, clock);
  const auto netlist = schema.require("EditedNetlist");
  for (int i = 0; i < 57; ++i) {
    db.import_instance(netlist, "n" + std::to_string(i), "", "u");
  }
  HistoryIndexes idx(db);
  idx.rebuild();

  QueryFilter f;
  f.type = netlist;
  const QueryPage whole = history::run_page(db, f, &idx, 1000);
  ASSERT_EQ(whole.ids.size(), 57u);
  EXPECT_FALSE(whole.next.has_value());

  std::vector<InstanceId> walked;
  std::optional<PageCursor> cursor;
  std::size_t pages = 0;
  for (;;) {
    const QueryPage page = history::run_page(db, f, &idx, 10, cursor);
    EXPECT_LE(page.ids.size(), 10u);
    walked.insert(walked.end(), page.ids.begin(), page.ids.end());
    ++pages;
    if (!page.next) break;
    // The wire encoding round-trips the resume point.
    cursor = PageCursor::decode(page.next->encode());
    ASSERT_TRUE(cursor.has_value());
  }
  EXPECT_EQ(pages, 6u);
  EXPECT_EQ(walked, whole.ids);
}

TEST(IndexTest, AnnotationLeavesStalePostingsButQueriesStayExact) {
  const schema::TaskSchema schema = schema::make_fig1_schema();
  support::ManualClock clock(1000, 10);
  storage::DurableHistory store(schema, clock, scratch("herc_index_annot"));
  HistoryDb& db = store.db();
  HistoryIndexes idx(db);
  idx.rebuild();
  store.subscribe(idx);
  const InstanceId id = db.import_instance(schema.require("EditedNetlist"),
                                           "alpha widget", "p", "u");
  db.annotate(id, "beta gadget", "renamed");

  // The old token still has a posting (supersets are kept, not tombstoned)
  // so the estimate is non-zero...
  QueryFilter old_kw;
  old_kw.keyword = "widget";
  ASSERT_TRUE(idx.estimate(old_kw, AccessPath::kKeyword).has_value());
  EXPECT_GE(*idx.estimate(old_kw, AccessPath::kKeyword), 1u);
  // ...but verification drops it, matching the scan exactly.
  EXPECT_TRUE(exact(db, old_kw, &idx).empty());
  QueryFilter new_kw;
  new_kw.keyword = "gadget";
  EXPECT_EQ(exact(db, new_kw, &idx), (std::vector<InstanceId>{id}));
}

TEST(IndexTest, NameCandidatesCoverCurrentNames) {
  const schema::TaskSchema schema = schema::make_fig1_schema();
  support::ManualClock clock(1000, 10);
  storage::DurableHistory store(schema, clock, scratch("herc_index_names"));
  HistoryDb& db = store.db();
  HistoryIndexes idx(db);
  idx.rebuild();
  store.subscribe(idx);
  const InstanceId id = db.import_instance(schema.require("EditedNetlist"),
                                           "low pass filter", "p", "u");
  const auto hits = idx.name_candidates("low pass filter");
  ASSERT_TRUE(hits.has_value());
  EXPECT_NE(std::find(hits->begin(), hits->end(), id), hits->end());
  // A renamed instance must be findable under the new name too.
  db.annotate(id, "output stage", "");
  const auto renamed = idx.name_candidates("output stage");
  ASSERT_TRUE(renamed.has_value());
  EXPECT_NE(std::find(renamed->begin(), renamed->end(), id), renamed->end());
}

TEST(IndexTest, ImageSerializeParseRoundTrips) {
  const schema::TaskSchema schema = schema::make_fig1_schema();
  support::ManualClock clock(1000, 10);
  HistoryDb db(schema, clock);
  populate(db, schema);
  HistoryIndexes idx(db);
  idx.rebuild();

  const std::string text = idx.image().serialize();
  IndexImage back;
  std::string error;
  ASSERT_TRUE(IndexImage::parse(text, back, error)) << error;
  EXPECT_EQ(back.serialize(), text);
  EXPECT_EQ(back.instances, idx.image().instances);
  EXPECT_EQ(back.edges, idx.image().edges);
  EXPECT_EQ(back.adjacency_digest, idx.image().adjacency_digest);
  EXPECT_EQ(back.by_date, idx.image().by_date);

  // Flipping any byte of the body must be caught by the checksum.
  std::string bent = text;
  bent[bent.size() / 2] ^= 0x20;
  EXPECT_FALSE(IndexImage::parse(bent, back, error));
}

TEST(IndexTest, OpenLoadsCleanFileAndCatchesUpFromJournal) {
  const schema::TaskSchema schema = schema::make_fig1_schema();
  const std::string dir = scratch("herc_index_open");
  support::ManualClock clock(1000, 10);
  HistoryDb db(schema, clock);
  const auto stimuli = schema.require("Stimuli");
  db.import_instance(stimuli, "a waves", "p0", "alice");
  db.import_instance(stimuli, "b waves", "p1", "bob");
  db.import_instance(stimuli, "c waves", "p2", "alice");

  // Save at seq 3, then two more records land in the journal.
  HistoryIndexes writer(db);
  writer.rebuild();
  writer.save(dir, 7, 3);
  db.import_instance(stimuli, "late waves", "p3", "dana");
  db.import_instance(stimuli, "final waves", "p4", "dana");

  // save() ends with the instance lines in id order (no runs here), so
  // the last two lines are exactly the journal tail past seq 3.
  const std::vector<std::string> lines = support::split(db.save(), '\n');
  std::vector<std::string> journal(5, "");
  journal[3] = lines[lines.size() - 3];
  journal[4] = lines[lines.size() - 2];

  HistoryIndexes reader(db);
  const auto report = reader.open(dir, 7, journal);
  EXPECT_TRUE(report.loaded) << report.reason;
  EXPECT_FALSE(report.rebuilt);
  EXPECT_EQ(report.caught_up, 2u);
  QueryFilter f;
  f.user = "dana";
  EXPECT_EQ(exact(db, f, &reader).size(), 2u);
  f = QueryFilter{};
  f.keyword = "waves";
  EXPECT_EQ(exact(db, f, &reader).size(), 5u);
}

TEST(IndexTest, SkewAndCorruptionFallBackToRebuild) {
  const schema::TaskSchema schema = schema::make_fig1_schema();
  const std::string dir = scratch("herc_index_skew");
  support::ManualClock clock(1000, 10);
  HistoryDb db(schema, clock);
  populate(db, schema);
  HistoryIndexes writer(db);
  writer.rebuild();
  writer.save(dir, 7, 2);
  const std::vector<std::string> journal(2, "");

  {  // Wrong epoch: the file predates a checkpoint.
    HistoryIndexes idx(db);
    const auto report = idx.open(dir, 8, journal);
    EXPECT_TRUE(report.rebuilt);
    EXPECT_FALSE(report.reason.empty());
    QueryFilter f;
    f.keyword = "filter";
    EXPECT_EQ(exact(db, f, &idx).size(), 3u);
  }
  {  // File seq ahead of the recovered journal: unreachable future image.
    HistoryIndexes idx(db);
    const auto report = idx.open(dir, 7, std::vector<std::string>(1, ""));
    EXPECT_TRUE(report.rebuilt);
  }
  {  // Truncated file: checksum fails, rebuild.
    std::ifstream in(HistoryIndexes::file_path(dir), std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::ofstream out(HistoryIndexes::file_path(dir),
                      std::ios::binary | std::ios::trunc);
    out.write(text.data(), static_cast<std::streamsize>(text.size() / 2));
    out.close();
    HistoryIndexes idx(db);
    const auto report = idx.open(dir, 7, journal);
    EXPECT_TRUE(report.rebuilt);
  }
  {  // Missing file: cold start is a rebuild, not an error.
    fs::remove(HistoryIndexes::file_path(dir));
    HistoryIndexes idx(db);
    const auto report = idx.open(dir, 7, journal);
    EXPECT_TRUE(report.rebuilt);
    EXPECT_FALSE(report.loaded);
  }
}

TEST(IndexTest, ObserverMaintainsIndexThroughReplicaStyleApply) {
  const schema::TaskSchema schema = schema::make_fig1_schema();
  support::ManualClock clock_a(1000, 10);
  HistoryDb leader(schema, clock_a);
  populate(leader, schema);

  // A follower store applies the leader's save()-format records as
  // frames, exactly as the replica applier feeds them; the index
  // subscribed to its change feed must converge.
  support::ManualClock clock_b(0, 1);
  storage::DurableHistory follower_store(schema, clock_b,
                                         scratch("herc_index_follower"));
  HistoryDb& follower = follower_store.db();
  HistoryIndexes live(follower);
  live.rebuild();
  follower_store.subscribe(live);
  for (const std::string& line : support::split(leader.save(), '\n')) {
    if (!line.empty()) follower_store.apply_frame(line);
  }
  ASSERT_EQ(follower.size(), leader.size());

  HistoryIndexes fresh(follower);
  fresh.rebuild();
  for (const char* kw : {"filter", "waves", "noise"}) {
    QueryFilter f;
    f.keyword = kw;
    EXPECT_EQ(exact(follower, f, &live), exact(follower, f, &fresh)) << kw;
  }
  QueryFilter by_user;
  by_user.user = "carol";
  EXPECT_EQ(exact(follower, by_user, &live).size(), 1u);
}

TEST(IndexTest, MoveAssignResyncTriggersRebuildViaOnReset) {
  const schema::TaskSchema schema = schema::make_fig1_schema();
  support::ManualClock clock(1000, 10);
  storage::DurableHistory store(schema, clock, scratch("herc_index_resync"));
  HistoryDb& db = store.db();
  db.import_instance(schema.require("Stimuli"), "old contents", "p", "u");
  HistoryIndexes idx(db);
  idx.rebuild();
  store.subscribe(idx);

  // The replica resync path: a freshly recovered image is installed over
  // the live database, in place.  The store publishes a rebase that
  // replaced the contents, so the index re-derives itself from them.
  support::ManualClock clock2(5000, 10);
  HistoryDb fresh(schema, clock2);
  populate(fresh, schema);
  store.install(1, fresh.save());

  QueryFilter gone;
  gone.keyword = "contents";
  EXPECT_TRUE(exact(db, gone, &idx).empty());
  QueryFilter now;
  now.keyword = "filter";
  EXPECT_EQ(exact(db, now, &idx).size(), 3u);
  // And the index keeps following post-resync mutations.
  db.import_instance(schema.require("Stimuli"), "post resync", "p", "erin");
  QueryFilter post;
  post.user = "erin";
  EXPECT_EQ(exact(db, post, &idx).size(), 1u);
}

}  // namespace
}  // namespace herc::index
