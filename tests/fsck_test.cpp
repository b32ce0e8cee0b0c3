// The history integrity auditor: every corruption class it must detect,
// the severity taxonomy, and `--repair`'s round trip back to a store that
// both recovers and audits clean.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "data/blob_store.hpp"
#include "exec/executor.hpp"
#include "fault_test_util.hpp"
#include "index/indexes.hpp"
#include "schema/schema_io.hpp"
#include "schema/standard_schemas.hpp"
#include "storage/fsck.hpp"
#include "storage/journal.hpp"
#include "storage/store.hpp"
#include "support/error.hpp"
#include "support/file.hpp"
#include "support/record.hpp"

namespace herc::storage {
namespace {

namespace fs = std::filesystem;
using data::BlobStore;
using support::RecordWriter;

/// Scratch directory per test, wiped on entry.
std::string scratch(const std::string& name) {
  const std::string dir = (fs::temp_directory_path() / name).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void put(const std::string& dir, const std::string& file,
         const std::string& content) {
  std::ofstream out((fs::path(dir) / file).string(), std::ios::binary);
  out << content;
}

/// A hand-built store: tiny schema, crafted snapshot lines, no journal.
/// Writing the files directly gives the tests byte-level control over the
/// defects they seed.
struct Forge {
  schema::TaskSchema schema{"forge"};
  std::string dir;
  std::vector<std::string> lines;

  explicit Forge(const std::string& name) : dir(scratch(name)) {
    const auto tool = schema.add_tool("T");
    const auto src = schema.add_data("S");
    const auto d = schema.add_data("D");
    schema.set_functional_dependency(d, tool);
    schema.add_data_dependency(d, src);
    schema.validate();
    put(dir, "schema.herc", schema::write_schema(schema));
  }

  void blob(const std::string& payload) {
    lines.push_back(RecordWriter("blob")
                        .field(BlobStore::key_for(payload))
                        .field(payload)
                        .str());
  }

  /// One instance line; `tool`/`inputs` use -1 / ids like the real format.
  void inst(std::uint32_t id, const std::string& type,
            const std::string& payload, std::uint32_t status = 0,
            std::int64_t tool = -1,
            const std::vector<std::uint32_t>& inputs = {},
            const std::string& blob_override = "") {
    RecordWriter w("inst");
    w.field(id);
    w.field(type);
    w.field("n" + std::to_string(id));
    w.field(std::string_view("tester"));
    w.field(std::int64_t{100 + id});
    w.field(std::string_view(""));  // comment
    w.field(blob_override.empty() ? BlobStore::key_for(payload)
                                  : blob_override);
    w.field(std::uint32_t{1});
    w.field(status);
    w.field(std::string_view(tool >= 0 ? "derive" : "import"));
    w.field(tool);
    w.field(static_cast<std::uint32_t>(inputs.size()));
    for (const std::uint32_t in : inputs) {
      w.field(in);
      w.field(std::string_view(""));
    }
    lines.push_back(w.str());
  }

  void raw(const std::string& line) { lines.push_back(line); }

  /// Writes snapshot.herc with the collected lines under epoch 0.
  void commit(std::int64_t declared_count = -1) {
    std::string text = RecordWriter("snap")
                           .field(std::int64_t{0})
                           .field(declared_count >= 0
                                      ? static_cast<std::uint32_t>(
                                            declared_count)
                                      : count_insts())
                           .str() +
                       "\n";
    for (const std::string& line : lines) text += line + "\n";
    put(dir, "snapshot.herc", text);
  }

  std::uint32_t count_insts() const {
    std::uint32_t n = 0;
    for (const std::string& line : lines) {
      if (line.rfind("inst|", 0) == 0) ++n;
    }
    return n;
  }
};

TEST(FsckTest, NotAStoreThrowsInsteadOfReporting) {
  const std::string dir = scratch("herc_fsck_nostore");
  EXPECT_THROW((void)fsck_store(dir), support::HistoryError);
}

TEST(FsckTest, CleanStoreAuditsClean) {
  Forge f("herc_fsck_clean");
  f.blob("tool");
  f.blob("seed");
  f.blob("out");
  f.inst(0, "T", "tool");
  f.inst(1, "S", "seed");
  f.inst(2, "D", "out", 0, 0, {1});
  f.commit();
  const FsckReport report = fsck_store(f.dir);
  EXPECT_TRUE(report.findings.empty()) << report.render();
  EXPECT_EQ(report.severity(), FsckSeverity::kClean);
  EXPECT_EQ(report.exit_code(), 0);
  EXPECT_EQ(report.stats.instances, 3u);
  EXPECT_EQ(report.stats.blobs, 3u);
}

TEST(FsckTest, DanglingReferenceIsCorruption) {
  Forge f("herc_fsck_dangling");
  f.blob("tool");
  f.blob("out");
  f.inst(0, "T", "tool");
  f.inst(1, "D", "out", 0, 0, {9});  // input i9 does not exist
  f.commit();
  const FsckReport report = fsck_store(f.dir);
  EXPECT_TRUE(report.has("dangling-reference")) << report.render();
  EXPECT_EQ(report.exit_code(), 2);
}

TEST(FsckTest, BlobHashMismatchIsCorruption) {
  Forge f("herc_fsck_hash");
  // A blob whose payload was altered after the key was computed.
  f.raw(RecordWriter("blob")
            .field(BlobStore::key_for("original"))
            .field("tampered")
            .str());
  f.inst(0, "S", "", 0, -1, {}, BlobStore::key_for("original"));
  f.commit();
  const FsckReport report = fsck_store(f.dir);
  EXPECT_TRUE(report.has("blob-hash-mismatch")) << report.render();
  EXPECT_EQ(report.exit_code(), 2);
}

TEST(FsckTest, MissingBlobIsCorruption) {
  Forge f("herc_fsck_missing");
  f.inst(0, "S", "never-stored");  // references a key with no blob line
  f.commit();
  const FsckReport report = fsck_store(f.dir);
  EXPECT_TRUE(report.has("missing-blob")) << report.render();
  EXPECT_EQ(report.exit_code(), 2);
}

TEST(FsckTest, OrphanBlobIsOnlyAWarning) {
  Forge f("herc_fsck_orphan");
  f.blob("seed");
  f.blob("nobody-references-me");
  f.inst(0, "S", "seed");
  f.commit();
  const FsckReport report = fsck_store(f.dir);
  EXPECT_TRUE(report.has("orphan-blob")) << report.render();
  EXPECT_EQ(report.severity(), FsckSeverity::kWarning);
  EXPECT_EQ(report.exit_code(), 1);
}

TEST(FsckTest, InterruptedRunAndUnquarantinedPartialAreWarnings) {
  Forge f("herc_fsck_openrun");
  f.blob("tool");
  f.blob("seed");
  f.blob("half");
  f.inst(0, "T", "tool");
  f.inst(1, "S", "seed");
  f.inst(2, "D", "half", 0, 0, {1});  // produced after the run began
  f.raw(RecordWriter("runb")
            .field(std::int64_t{0})
            .field(std::string_view("flow"))
            .field(std::string_view(""))
            .field(std::int64_t{-1})
            .field(std::string_view("tester"))
            .field(std::string_view(""))
            .field(std::int64_t{0})
            .field(std::uint32_t{2})  // db size at begin: the two imports
            .field(std::string_view("flowtext"))
            .str());
  f.raw(RecordWriter("tstart")
            .field(std::int64_t{0})
            .field(std::string_view("1:D"))
            .str());
  f.commit();
  const FsckReport report = fsck_store(f.dir);
  EXPECT_TRUE(report.has("interrupted-run")) << report.render();
  EXPECT_TRUE(report.has("unquarantined-partial")) << report.render();
  EXPECT_EQ(report.exit_code(), 1);
  EXPECT_EQ(report.stats.open_runs, 1u);
}

TEST(FsckTest, SealedWindowAndClosedRunsBoundThePartialSweep) {
  // The sweep for an interrupted run's partials must stop at its sealed
  // window: work recorded after a recovery (new instances, later complete
  // runs) is not the crashed run's doing and must never be flagged — or,
  // under --repair, quarantined.
  Forge f("herc_fsck_seal");
  f.blob("tool");
  f.blob("seed");
  f.blob("half");
  f.blob("later");
  f.blob("redone");
  f.inst(0, "T", "tool");
  f.inst(1, "S", "seed");
  f.inst(2, "D", "half", 0, 0, {1});  // the run's true partial product
  f.raw(RecordWriter("runb")
            .field(std::int64_t{0})
            .field(std::string_view("flow"))
            .field(std::string_view(""))
            .field(std::int64_t{-1})
            .field(std::string_view("tester"))
            .field(std::string_view(""))
            .field(std::int64_t{0})
            .field(std::uint32_t{2})  // db size at begin: the two imports
            .field(std::string_view("flowtext"))
            .str());
  f.raw(RecordWriter("tstart")
            .field(std::int64_t{0})
            .field(std::string_view("1:D"))
            .str());
  // A recovery sealed the run's window at table size 3 …
  f.raw(RecordWriter("runseal")
            .field(std::int64_t{0})
            .field(std::uint32_t{3})
            .str());
  // … so this later record is outside it.
  f.inst(3, "D", "later", 0, 0, {1});
  // A later run that finished cleanly and covered its product.
  f.raw(RecordWriter("runb")
            .field(std::int64_t{1})
            .field(std::string_view("flow"))
            .field(std::string_view(""))
            .field(std::int64_t{-1})
            .field(std::string_view("tester"))
            .field(std::string_view(""))
            .field(std::int64_t{0})
            .field(std::uint32_t{4})
            .field(std::string_view("flowtext"))
            .str());
  f.raw(RecordWriter("tstart")
            .field(std::int64_t{1})
            .field(std::string_view("1:D"))
            .str());
  f.inst(4, "D", "redone", 0, 0, {1});
  f.raw(RecordWriter("tcover")
            .field(std::int64_t{1})
            .field(std::uint32_t{1})
            .field(std::uint32_t{4})
            .str());
  f.raw(RecordWriter("tfin")
            .field(std::int64_t{1})
            .field(std::string_view("1:D"))
            .field(std::string_view("ok"))
            .str());
  f.raw(RecordWriter("rune")
            .field(std::int64_t{1})
            .field(std::string_view("complete"))
            .str());
  f.commit();

  FsckOptions repair;
  repair.repair = true;
  const FsckReport report = fsck_store(f.dir, repair);
  EXPECT_TRUE(report.has("interrupted-run")) << report.render();
  std::size_t partials = 0;
  for (const FsckFinding& finding : report.findings) {
    if (finding.code != "unquarantined-partial") continue;
    ++partials;
    EXPECT_NE(finding.detail.find("instance i2"), std::string::npos)
        << finding.detail;
  }
  EXPECT_EQ(partials, 1u) << report.render();

  // The repaired store quarantined only the true partial.
  support::ManualClock clock(0, 1);
  DurableHistory store(f.schema, clock, f.dir, {});
  EXPECT_EQ(store.recovery().quarantined, 0u);
  ASSERT_EQ(store.db().size(), 5u);
  EXPECT_FALSE(store.db().instance(data::InstanceId(2)).ok());
  EXPECT_TRUE(store.db().instance(data::InstanceId(3)).ok())
      << "post-seal work swept by --repair";
  EXPECT_TRUE(store.db().instance(data::InstanceId(4)).ok())
      << "a closed run's covered product swept by --repair";
}

TEST(FsckTest, BadRecordAndCountMismatchAreCorruption) {
  Forge f("herc_fsck_badrec");
  f.blob("seed");
  f.inst(0, "S", "seed");
  f.raw("gibberish|what|even");
  f.commit(5);  // declared count != actual
  const FsckReport report = fsck_store(f.dir);
  EXPECT_TRUE(report.has("bad-record")) << report.render();
  EXPECT_TRUE(report.has("snapshot-count-mismatch")) << report.render();
  EXPECT_EQ(report.exit_code(), 2);
}

TEST(FsckTest, UnknownEntityAndOutOfOrderIdsAreCorruption) {
  Forge f("herc_fsck_entity");
  f.blob("seed");
  f.inst(0, "Phantom", "seed");  // not in the schema
  f.inst(3, "S", "seed");        // id gap
  f.commit();
  const FsckReport report = fsck_store(f.dir);
  EXPECT_TRUE(report.has("unknown-entity")) << report.render();
  EXPECT_TRUE(report.has("out-of-order-instance")) << report.render();
  EXPECT_EQ(report.exit_code(), 2);
}

TEST(FsckTest, JournalEpochSkewSeverities) {
  // Ahead of the snapshot: the snapshot those frames extend is gone.
  {
    Forge f("herc_fsck_future");
    f.blob("seed");
    f.inst(0, "S", "seed");
    f.commit();
    Journal::create((fs::path(f.dir) / "journal.wal").string(), 7, {});
    const FsckReport report = fsck_store(f.dir);
    EXPECT_TRUE(report.has("future-journal-epoch")) << report.render();
    EXPECT_EQ(report.exit_code(), 2);
  }
  // Behind the snapshot: the checkpoint crashed between its two steps;
  // recovery discards the journal, so it is only a warning.
  {
    Forge f("herc_fsck_stale");
    f.blob("seed");
    f.inst(0, "S", "seed");
    std::string text = RecordWriter("snap")
                           .field(std::int64_t{3})
                           .field(std::uint32_t{1})
                           .str() +
                       "\n";
    for (const std::string& line : f.lines) text += line + "\n";
    put(f.dir, "snapshot.herc", text);
    Journal::create((fs::path(f.dir) / "journal.wal").string(), 2, {});
    const FsckReport report = fsck_store(f.dir);
    EXPECT_TRUE(report.has("stale-journal-epoch")) << report.render();
    EXPECT_EQ(report.exit_code(), 1);
  }
}

TEST(FsckTest, TornJournalTailIsAWarning) {
  Forge f("herc_fsck_torn");
  f.blob("seed");
  f.inst(0, "S", "seed");
  f.commit();
  {
    Journal j = Journal::create((fs::path(f.dir) / "journal.wal").string(),
                                0, {});
    j.append("annot|0|renamed|note\n");
    j.sync();
  }
  // Chop the last byte of the final frame.
  const std::string path = (fs::path(f.dir) / "journal.wal").string();
  std::error_code ec;
  fs::resize_file(path, fs::file_size(path) - 1, ec);
  ASSERT_FALSE(ec);
  const FsckReport report = fsck_store(f.dir);
  EXPECT_TRUE(report.has("torn-journal-tail")) << report.render();
  EXPECT_EQ(report.exit_code(), 1);
}

TEST(FsckTest, RepairProducesAStoreThatRecoversAndAuditsClean) {
  Forge f("herc_fsck_repair");
  f.blob("tool");
  f.blob("seed");
  f.blob("orphaned");
  f.inst(0, "T", "tool");
  f.inst(1, "S", "seed");
  f.inst(2, "D", "lost-payload", 0, 0, {1});  // missing blob
  f.inst(3, "D", "seed", 0, 0, {9});          // dangling input
  f.commit();

  FsckOptions repair;
  repair.repair = true;
  const FsckReport before = fsck_store(f.dir, repair);
  EXPECT_EQ(before.exit_code(), 2);
  EXPECT_TRUE(before.has("missing-blob"));
  EXPECT_TRUE(before.has("dangling-reference"));
  EXPECT_TRUE(before.has("orphan-blob"));
  EXPECT_FALSE(before.repairs.empty());

  const FsckReport after = fsck_store(f.dir);
  EXPECT_EQ(after.exit_code(), 0) << after.render();

  // The repaired store recovers through the real path: tombstoned
  // instances keep their id slot with quarantined status.
  support::ManualClock clock(0, 1);
  DurableHistory store(f.schema, clock, f.dir, {});
  EXPECT_EQ(store.db().size(), 4u);
  EXPECT_FALSE(store.db().instance(data::InstanceId(2)).ok());
  EXPECT_FALSE(store.db().instance(data::InstanceId(3)).ok());
  EXPECT_TRUE(store.db().instance(data::InstanceId(1)).ok());
  EXPECT_EQ(store.epoch(), 1u) << "repair checkpoints under the next epoch";
}

/// A real journaled store (fig1 schema, three imports) with its secondary
/// index saved at the store's exact (epoch, seq) — the baseline the index
/// audit tests then perturb.
struct IndexedStore {
  schema::TaskSchema schema = schema::make_fig1_schema();
  std::string dir;
  std::uint64_t epoch = 0;
  index::IndexImage image;  // the correct image, stamped (epoch, seq)

  explicit IndexedStore(const std::string& name) : dir(scratch(name)) {
    support::ManualClock clock(100, 10);
    DurableHistory store(schema, clock, dir, {});
    store.db().import_instance(schema.require("EditedNetlist"), "low pass",
                               "aa", "alice");
    store.db().import_instance(schema.require("Stimuli"), "waves", "bb",
                               "bob");
    store.db().import_instance(schema.require("EditedNetlist"), "high pass",
                               "cc", "alice");
    index::HistoryIndexes idx(store.db());
    idx.rebuild();
    idx.save(dir, store.epoch(), store.journal_seq());
    epoch = store.epoch();
    image = idx.image();
    image.epoch = store.epoch();
    image.seq = store.journal_seq();
  }

  void write_index(const index::IndexImage& img) const {
    std::ofstream out(index::HistoryIndexes::file_path(dir),
                      std::ios::binary | std::ios::trunc);
    out << img.serialize();
  }
};

TEST(FsckTest, CleanStoreWithIndexAuditsClean) {
  IndexedStore s("herc_fsck_idx_clean");
  const FsckReport report = fsck_store(s.dir);
  EXPECT_TRUE(report.findings.empty()) << report.render();
  EXPECT_EQ(report.exit_code(), 0);
}

TEST(FsckTest, StaleIndexEpochIsAWarning) {
  IndexedStore s("herc_fsck_idx_epoch");
  index::IndexImage img = s.image;
  img.epoch += 1;  // index from a future the store never reached
  s.write_index(img);
  const FsckReport report = fsck_store(s.dir);
  EXPECT_TRUE(report.has("stale-index-epoch")) << report.render();
  EXPECT_EQ(report.exit_code(), 1);

  // A seq the journal never reached is the same verdict.
  img = s.image;
  img.seq += 5;
  s.write_index(img);
  const FsckReport ahead = fsck_store(s.dir);
  EXPECT_TRUE(ahead.has("stale-index-epoch")) << ahead.render();
  EXPECT_EQ(ahead.exit_code(), 1);
}

TEST(FsckTest, MissingPostingAndOrphanIndexAreWarnings) {
  IndexedStore s("herc_fsck_idx_postings");
  index::IndexImage img = s.image;
  img.users.erase("alice");  // the index forgot a user's instances
  s.write_index(img);
  const FsckReport missing = fsck_store(s.dir);
  EXPECT_TRUE(missing.has("missing-posting")) << missing.render();
  EXPECT_EQ(missing.exit_code(), 1);

  img = s.image;
  img.users["ghost"] = {0};  // a posting no journal record legitimizes
  s.write_index(img);
  const FsckReport orphan = fsck_store(s.dir);
  EXPECT_TRUE(orphan.has("orphan-index")) << orphan.render();
  EXPECT_EQ(orphan.exit_code(), 1);
}

TEST(FsckTest, AdjacencyMismatchAndUnreadableIndexAreWarnings) {
  IndexedStore s("herc_fsck_idx_adj");
  index::IndexImage img = s.image;
  img.edges += 1;  // claims a derivation edge the history never recorded
  s.write_index(img);
  const FsckReport adj = fsck_store(s.dir);
  EXPECT_TRUE(adj.has("index-adjacency-mismatch")) << adj.render();
  EXPECT_EQ(adj.exit_code(), 1);

  put(s.dir, std::string(index::kIndexFileName), "not an index file");
  const FsckReport bad = fsck_store(s.dir);
  EXPECT_TRUE(bad.has("index-unreadable")) << bad.render();
  EXPECT_EQ(bad.exit_code(), 1);
}

TEST(FsckTest, RepairRebuildsTheIndexAtTheNewEpoch) {
  IndexedStore s("herc_fsck_idx_repair");
  put(s.dir, std::string(index::kIndexFileName), "shredded");
  FsckOptions repair;
  repair.repair = true;
  const FsckReport before = fsck_store(s.dir, repair);
  EXPECT_TRUE(before.has("index-unreadable")) << before.render();
  EXPECT_FALSE(before.repairs.empty());

  // The repaired store audits clean and carries a warm index stamped at
  // the repair checkpoint's epoch with an empty journal.
  const FsckReport after = fsck_store(s.dir);
  EXPECT_EQ(after.exit_code(), 0) << after.render();
  std::ifstream in(index::HistoryIndexes::file_path(s.dir),
                   std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  index::IndexImage rebuilt;
  std::string error;
  ASSERT_TRUE(index::IndexImage::parse(text, rebuilt, error)) << error;
  EXPECT_EQ(rebuilt.epoch, s.epoch + 1);
  EXPECT_EQ(rebuilt.seq, 0u);
  EXPECT_EQ(rebuilt.instances, 3u);
}

TEST(FsckTest, JsonRenderingLabelsSeveritiesAndNotesStayClean) {
  // A warning store: orphan blob -> severity "warning", exit 1.
  Forge w("herc_fsck_json_warn");
  w.blob("seed");
  w.blob("orphaned");
  w.inst(0, "S", "seed");
  w.commit();
  const std::string warn_json = fsck_store(w.dir).render_json();
  EXPECT_NE(warn_json.find("\"severity\":\"warning\""), std::string::npos)
      << warn_json;
  EXPECT_NE(warn_json.find("\"code\":\"orphan-blob\""), std::string::npos);
  EXPECT_NE(warn_json.find("\"verdict\":\"warnings\""), std::string::npos);
  EXPECT_NE(warn_json.find("\"exit_code\":1"), std::string::npos);

  // A replica marker is a clean-severity note: rendered with severity
  // "note", verdict and exit code unchanged.
  Forge r("herc_fsck_json_note");
  r.blob("seed");
  r.inst(0, "S", "seed");
  r.commit();
  put(r.dir, "replica.herc", "follower of /tmp/leader");
  const FsckReport note_report = fsck_store(r.dir);
  EXPECT_EQ(note_report.exit_code(), 0) << note_report.render();
  const std::string note_json = note_report.render_json();
  EXPECT_NE(note_json.find("\"severity\":\"note\""), std::string::npos)
      << note_json;
  EXPECT_NE(note_json.find("\"code\":\"replica-store\""), std::string::npos);
  EXPECT_NE(note_json.find("\"verdict\":\"clean\""), std::string::npos);
  EXPECT_NE(note_json.find("\"exit_code\":0"), std::string::npos);
}

TEST(FsckTest, RealExecutedStoreAuditsCleanEndToEnd) {
  // Not a forged store: a real executor run through the real journal.
  faulttest::World w;
  faulttest::add_chain(w, "C", 3);
  graph::TaskGraph flow(w.schema, "chain");
  flow.add_node(w.schema.require("CD3"));
  faulttest::expand_all(flow);
  faulttest::bind_leaves(w, flow);

  const std::string dir = scratch("herc_fsck_real");
  fs::remove_all(dir);
  {
    DurableHistory store(w.schema, w.clock, dir, {});
    store.adopt(std::move(w.db));
    exec::Executor exec(store.db(), w.tools);
    exec.run(flow);
  }
  const FsckReport report = fsck_store(dir);
  EXPECT_EQ(report.exit_code(), 0) << report.render();
  EXPECT_EQ(report.stats.runs, 1u);
  EXPECT_EQ(report.stats.open_runs, 0u);
}

/// What opening `f`'s store through recovery throws ("" when it opens).
std::string open_error(const Forge& f) {
  support::ManualClock clock(0, 1);
  try {
    DurableHistory store(f.schema, clock, f.dir, {});
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

/// A closed one-task run over the forged table, as `runb` and `rune`.
std::string run_begin_line(std::uint32_t db_size) {
  return RecordWriter("runb")
      .field(std::int64_t{0})
      .field(std::string_view("flow"))
      .field(std::string_view(""))
      .field(std::int64_t{-1})
      .field(std::string_view("tester"))
      .field(std::string_view(""))
      .field(std::int64_t{0})
      .field(db_size)
      .field(std::string_view("flowtext"))
      .str();
}

TEST(FsckTest, NegativeDerivationInputIsABadRecordAsTheStoreRefusesIt) {
  Forge f("herc_fsck_negative_input");
  f.blob("tool");
  f.blob("out");
  f.inst(0, "T", "tool");
  f.inst(1, "D", "out", 0, 0, {0});
  std::string& line = f.lines.back();
  ASSERT_EQ(line.substr(line.size() - 5), "|1|0|");
  line = line.substr(0, line.size() - 5) + "|1|-1|";
  f.commit();
  EXPECT_NE(open_error(f).find("record 'inst': field out of uint32 range"),
            std::string::npos)
      << open_error(f);
  const FsckReport report = fsck_store(f.dir);
  EXPECT_TRUE(report.has("bad-record")) << report.render();
  EXPECT_EQ(report.exit_code(), 2);
}

TEST(FsckTest, NegativeSealEndIsABadRecordAsTheStoreRefusesIt) {
  Forge f("herc_fsck_negative_seal");
  f.blob("seed");
  f.inst(0, "S", "seed");
  f.raw(run_begin_line(1));
  f.raw(RecordWriter("runseal")
            .field(std::int64_t{0})
            .field(std::int64_t{-3})
            .str());
  f.raw(RecordWriter("rune")
            .field(std::int64_t{0})
            .field(std::string_view("complete"))
            .str());
  f.commit();
  EXPECT_NE(
      open_error(f).find("record 'runseal': field out of uint32 range"),
      std::string::npos)
      << open_error(f);
  const FsckReport report = fsck_store(f.dir);
  EXPECT_TRUE(report.has("bad-record")) << report.render();
  EXPECT_EQ(report.exit_code(), 2);
}

TEST(FsckTest, RepairRefusesAnImageThatWouldNotOpen) {
  // Dropping the unreadable middle record would leave ids 0 and 2: an
  // image recovery refuses ("instance records out of order").  Repair
  // must leave the only snapshot alone and say why.
  Forge f("herc_fsck_repair_refused");
  f.blob("a");
  f.blob("b");
  f.blob("c");
  f.inst(0, "S", "a");
  f.inst(1, "S", "b", /*status=*/7);
  f.inst(2, "S", "c");
  f.commit();
  const std::string snapshot = (fs::path(f.dir) / "snapshot.herc").string();
  const std::optional<std::string> before = support::read_file(snapshot);
  ASSERT_TRUE(before.has_value());

  FsckOptions repair;
  repair.repair = true;
  const FsckReport report = fsck_store(f.dir, repair);
  EXPECT_TRUE(report.has("bad-record")) << report.render();
  ASSERT_TRUE(report.has("repair-refused")) << report.render();
  for (const FsckFinding& finding : report.findings) {
    if (finding.code != "repair-refused") continue;
    EXPECT_EQ(finding.severity, FsckSeverity::kCorruption);
    EXPECT_NE(finding.detail.find("instance records out of order"),
              std::string::npos)
        << finding.detail;
  }
  EXPECT_TRUE(report.repairs.empty()) << report.render();
  EXPECT_EQ(report.exit_code(), 2);
  EXPECT_EQ(support::read_file(snapshot), before);
  EXPECT_FALSE(fs::exists(fs::path(f.dir) / "journal.wal"));
}

/// A store with one checkpointed import and two journaled ones; returns
/// its directory.
std::string store_with_a_journal(const std::string& name,
                                 const schema::TaskSchema& schema) {
  const std::string dir = scratch(name);
  support::ManualClock clock(100, 10);
  StoreOptions options;
  options.journal.sync = SyncPolicy::kCommit;
  DurableHistory store(schema, clock, dir, options);
  store.db().import_instance(schema.require("Stimuli"), "kept", "a", "u");
  store.checkpoint();
  store.db().import_instance(schema.require("Stimuli"), "late", "b", "u");
  store.db().import_instance(schema.require("Stimuli"), "later", "c", "u");
  return dir;
}

/// Repairs `dir` and checks that the repair was refused and wrote nothing.
void expect_repair_refused(const std::string& dir, const std::string& code) {
  const std::string snapshot = (fs::path(dir) / "snapshot.herc").string();
  const std::string journal = (fs::path(dir) / "journal.wal").string();
  const std::optional<std::string> snapshot_before =
      support::read_file(snapshot);
  const std::optional<std::string> journal_before = support::read_file(journal);
  FsckOptions repair;
  repair.repair = true;
  const FsckReport report = fsck_store(dir, repair);
  EXPECT_TRUE(report.has(code)) << report.render();
  EXPECT_TRUE(report.has("repair-refused")) << report.render();
  EXPECT_TRUE(report.repairs.empty()) << report.render();
  EXPECT_EQ(report.exit_code(), 2);
  EXPECT_EQ(support::read_file(snapshot), snapshot_before);
  EXPECT_EQ(support::read_file(journal), journal_before);
  // The next audit still sees the damage: nothing made it look clean.
  EXPECT_EQ(fsck_store(dir).exit_code(), 2);
}

TEST(FsckTest, RepairLeavesTheJournalOfAStoreWhoseSnapshotLostItsHeader) {
  const schema::TaskSchema schema = schema::make_fig1_schema();
  const std::string dir = store_with_a_journal("herc_fsck_no_header", schema);
  put(dir, "snapshot.herc", "");
  expect_repair_refused(dir, "bad-snapshot-header");
}

TEST(FsckTest, RepairLeavesAJournalWhoseMagicItCannotRead) {
  const schema::TaskSchema schema = schema::make_fig1_schema();
  const std::string dir = store_with_a_journal("herc_fsck_bad_magic", schema);
  const std::string journal = (fs::path(dir) / "journal.wal").string();
  std::string bytes = support::read_file(journal).value();
  bytes[0] = static_cast<char>(bytes[0] ^ 1);
  put(dir, "journal.wal", bytes);
  expect_repair_refused(dir, "bad-record");
}

TEST(FsckTest, JsonEscapesControlBytesInFindings) {
  Forge f("herc_fsck_json_control");
  f.blob("seed");
  f.inst(0, "S\x01", "seed");  // an unknown entity whose name holds 0x01
  f.commit();
  const FsckReport report = fsck_store(f.dir);
  ASSERT_TRUE(report.has("unknown-entity")) << report.render();
  const std::string json = report.render_json();
  EXPECT_NE(json.find("'S\\u0001'"), std::string::npos) << json;
  ASSERT_FALSE(json.empty());
  EXPECT_EQ(json.back(), '\n');
  for (std::size_t i = 0; i + 1 < json.size(); ++i) {
    EXPECT_GE(static_cast<unsigned char>(json[i]), 0x20)
        << "raw control byte at offset " << i << " of " << json;
  }
}

}  // namespace
}  // namespace herc::storage
