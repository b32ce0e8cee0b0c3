// The flat layouts behind the keyword index (src/index/arena.hpp): the
// token dictionary and the posting lists checked against standard
// containers over seeded random operation sequences, and the bytes of
// `indexes.herc` pinned: the section lines as the index has written them
// since before the flat layout, inside the HERCIDX2 envelope.  An image in
// the previous format is refused and rebuilt, and a flipped bit anywhere
// in the stamp in front of the sections rebuilds too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "history/history_db.hpp"
#include "history/query_planner.hpp"
#include "index/arena.hpp"
#include "index/indexes.hpp"
#include "property_seed.hpp"
#include "schema/standard_schemas.hpp"
#include "storage/store.hpp"
#include "support/clock.hpp"
#include "support/envelope.hpp"
#include "support/file.hpp"
#include "support/text.hpp"

namespace herc::index {
namespace {

namespace fs = std::filesystem;
using namespace std::string_view_literals;
using data::InstanceId;
using history::HistoryDb;
using history::RecordRequest;

constexpr std::uint64_t kSeedFallback = 0x2545f4914f6cdd1dULL;
constexpr std::uint64_t kRounds = 4;
constexpr std::size_t kSteps = 2500;

/// A short token over a small alphabet, so that draws repeat.
std::string random_token(std::mt19937_64& rng) {
  static constexpr std::string_view kChars = "abz_059";
  std::string tok(1 + rng() % 6, ' ');
  for (char& c : tok) c = kChars[rng() % kChars.size()];
  return tok;
}

/// A token absent from `ref` whose home slot is `home`, or nullopt.
std::optional<std::string> token_homed_at(
    std::size_t home, std::size_t capacity,
    const std::unordered_map<std::string, std::uint32_t>& ref,
    std::mt19937_64& rng) {
  for (std::size_t attempt = 0; attempt < 64 * capacity; ++attempt) {
    std::string tok = random_token(rng) + random_token(rng);
    if ((TokenDictionary::hash(tok) & (capacity - 1)) == home &&
        !ref.contains(tok)) {
      return tok;
    }
  }
  return std::nullopt;
}

TEST(IndexLayoutTest, TokenDictionaryMatchesAHashMap) {
  const std::uint64_t base = testprop::base_seed(kSeedFallback);
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    const std::uint64_t seed = base + round;
    SCOPED_TRACE(testprop::seed_note(seed));
    std::mt19937_64 rng(seed);
    TokenDictionary dict;
    std::unordered_map<std::string, std::uint32_t> ref;
    std::vector<std::string> texts;  // id -> text, first-seen order
    std::vector<std::size_t> capacities;
    std::size_t absent = 0;
    std::size_t collisions = 0;

    const auto intern = [&](const std::string& tok) {
      const std::size_t before = dict.capacity();
      const auto [id, added] = dict.intern(tok);
      const auto [it, fresh] =
          ref.try_emplace(tok, static_cast<std::uint32_t>(texts.size()));
      ASSERT_EQ(added, fresh) << tok;
      ASSERT_EQ(id, it->second) << tok;
      if (fresh) texts.push_back(tok);
      if (dict.capacity() != before) {
        // Every growth doubles the table and re-homes every token.
        ASSERT_EQ(dict.capacity(), before == 0 ? 16 : 2 * before);
        capacities.push_back(dict.capacity());
        for (const auto& [text, want] : ref) {
          ASSERT_EQ(dict.find(text), want) << text;
        }
      }
      ASSERT_GE(dict.capacity(), 2 * dict.size());
    };

    for (std::size_t step = 0; step < kSteps; ++step) {
      const std::uint64_t op = rng() % 10;
      if (op < 4) {
        intern(random_token(rng));
      } else if (op < 6 && !texts.empty()) {
        intern(texts[rng() % texts.size()]);  // a repeat
      } else if (op < 9) {
        const std::string tok = random_token(rng);
        const auto it = ref.find(tok);
        if (it == ref.end()) {
          ++absent;
          ASSERT_EQ(dict.find(tok), std::nullopt) << tok;
        } else {
          ASSERT_EQ(dict.find(tok), it->second) << tok;
        }
      } else if (!texts.empty() && 2 * (dict.size() + 1) <= dict.capacity()) {
        // A token sharing an existing token's home slot: it must probe
        // past it, first as an absent lookup, then as an insert.
        const std::string resident = texts[rng() % texts.size()];
        const std::size_t home =
            TokenDictionary::hash(resident) & (dict.capacity() - 1);
        const std::optional<std::string> tok =
            token_homed_at(home, dict.capacity(), ref, rng);
        ASSERT_TRUE(tok.has_value());
        ASSERT_EQ(dict.find(*tok), std::nullopt) << *tok;
        intern(*tok);
        ASSERT_EQ(dict.find(*tok), ref.at(*tok));
        ASSERT_EQ(dict.find(resident), ref.at(resident));
        ++collisions;
      }
      if (HasFatalFailure()) return;  // an ASSERT inside `intern`
      ASSERT_EQ(dict.size(), texts.size());
      for (std::uint32_t id = 0; id < texts.size(); ++id) {
        ASSERT_EQ(dict.text(id), texts[id]) << "id " << id;
      }
    }
    EXPECT_GT(absent, 0u);
    EXPECT_GT(collisions, 0u);
    ASSERT_FALSE(capacities.empty());
    EXPECT_EQ(capacities.front(), 16u);
    EXPECT_GE(capacities.size(), 6u);  // 16 -> 512 and beyond
  }
}

TEST(IndexLayoutTest, PostingListsMatchOrderedSets) {
  const std::uint64_t base = testprop::base_seed(kSeedFallback);
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    const std::uint64_t seed = base + round;
    SCOPED_TRACE(testprop::seed_note(seed));
    std::mt19937_64 rng(seed);
    PostingLists lists;
    std::vector<std::set<std::uint32_t>> ref;
    std::size_t out_of_order = 0;
    std::size_t duplicates = 0;
    std::size_t moves = 0;

    for (std::size_t step = 0; step < kSteps; ++step) {
      if (rng() % 8 == 0 || ref.empty()) {
        // A new token's empty list, or a list as a parsed file gives it.
        std::set<std::uint32_t> ids;
        if (rng() % 2 == 0) {
          for (std::uint64_t n = rng() % 4; n > 0; --n) {
            ids.insert(static_cast<std::uint32_t>(rng() % 64));
          }
        }
        const std::vector<std::uint32_t> given(ids.begin(), ids.end());
        ASSERT_EQ(lists.add(given), ref.size());
        ref.push_back(std::move(ids));
      } else {
        const auto t = static_cast<std::uint32_t>(rng() % ref.size());
        std::set<std::uint32_t>& want = ref[t];
        const std::uint32_t last = want.empty() ? 0 : *want.rbegin();
        std::uint32_t id = last + 1 + static_cast<std::uint32_t>(rng() % 3);
        const std::uint64_t kind = rng() % 4;
        if (kind == 0) {
          id = static_cast<std::uint32_t>(rng() % (last + 1));
        } else if (kind == 1 && !want.empty()) {
          auto it = want.begin();
          std::advance(it, rng() % want.size());
          id = *it;
        }
        if (want.contains(id)) {
          ++duplicates;
        } else if (id < last) {
          ++out_of_order;
        }
        // A run has moved when its place relative to an untouched list
        // changed: reallocating the arena shifts both alike.
        std::optional<std::uint32_t> other;
        for (std::uint32_t u = 0; u < ref.size() && !other; ++u) {
          if (u != t && !ref[u].empty()) other = u;
        }
        const auto offset = [&] {
          return other ? lists[t].data() - lists[*other].data() : 0;
        };
        const auto before = offset();
        lists.insert(t, id);
        want.insert(id);
        if (offset() != before) ++moves;
      }
      ASSERT_EQ(lists.size(), ref.size());
      for (std::uint32_t t = 0; t < ref.size(); ++t) {
        const std::span<const std::uint32_t> got = lists[t];
        ASSERT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()),
                  std::vector<std::uint32_t>(ref[t].begin(), ref[t].end()))
            << "list " << t << " at step " << step;
      }
    }
    EXPECT_GT(out_of_order, 0u);
    EXPECT_GT(duplicates, 0u);
    EXPECT_GT(moves, 0u);
  }
}

/// A fixed history with imports, an edit, an annotation (which posts an
/// old instance under tokens already posted for newer ones) and a
/// quarantine.
void populate_fixed(HistoryDb& db, const schema::TaskSchema& schema) {
  const InstanceId sim =
      db.import_instance(schema.require("Simulator"), "spice", "bin", "ops");
  const InstanceId editor = db.import_instance(
      schema.require("CircuitEditor"), "ed", "", "ops");
  const InstanceId n1 =
      db.import_instance(schema.require("EditedNetlist"), "Low pass filter",
                         "aa", "alice", "first cut");
  const InstanceId waves = db.import_instance(
      schema.require("Stimuli"), "square waves", "aa", "bob");
  RecordRequest edit;
  edit.type = schema.require("EditedNetlist");
  edit.name = "low pass filter v2";
  edit.user = "alice";
  edit.payload = "ab";
  edit.derivation.tool = editor;
  edit.derivation.inputs = {n1};
  edit.derivation.input_roles = {"seed"};
  edit.derivation.task = "CircuitEditor";
  const InstanceId n2 = db.record(edit);
  RecordRequest run;
  run.type = schema.require("Performance");
  run.name = "filter gain";
  run.user = "bob";
  run.payload = "perf";
  run.derivation.tool = sim;
  run.derivation.inputs = {n2, waves};
  run.derivation.input_roles = {"circuit", "stimuli"};
  run.derivation.task = "Simulator";
  const InstanceId perf = db.record(run);
  db.annotate(n1, "Low pass filter (old)", "gain superseded by v2");
  db.quarantine(perf, "crashed run");
}

// The image an observer kept current through the history above, and the
// image a rebuild makes from the final table (tokens in a different
// first-seen order, and no stale postings).  Their section lines are what
// the index wrote before its flat layout; in front of them stand the magic,
// the envelope's length and checksum (support/envelope.hpp) and the stamp
// line (epoch, seq, instances) the checksum covers.
constexpr std::string_view kLiveImage =
    "HERCIDX2" "\x99\x01\x00\x00" "\x0a\xd6\xf5\x13"
    "stamp|0|0|6\n"
    "tok|spice|0\n"
    "tok|ed|1\n"
    "tok|low|2|4\n"
    "tok|pass|2|4\n"
    "tok|filter|2|4|5\n"
    "tok|first|2\n"
    "tok|cut|2\n"
    "tok|square|3\n"
    "tok|waves|3\n"
    "tok|v2|2|4\n"
    "tok|gain|2|5\n"
    "tok|old|2\n"
    "tok|superseded|2\n"
    "tok|by|2\n"
    "tok|quarantined|5\n"
    "tok|crashed|5\n"
    "tok|run|5\n"
    "usr|alice|2|4\n"
    "usr|bob|3|5\n"
    "usr|ops|0|1\n"
    "typ|CircuitEditor|1010|1\n"
    "typ|EditedNetlist|1020|2|1040|4\n"
    "typ|Performance|1050|5\n"
    "typ|Simulator|1000|0\n"
    "typ|Stimuli|1030|3\n"
    "adj|5|-2450769804417912842\n"sv;

constexpr std::string_view kRebuiltImage =
    "HERCIDX2" "\x83\x01\x00\x00" "\x18\xab\xd9\xdf"
    "stamp|0|0|6\n"
    "tok|spice|0\n"
    "tok|ed|1\n"
    "tok|low|2|4\n"
    "tok|pass|2|4\n"
    "tok|filter|2|4|5\n"
    "tok|old|2\n"
    "tok|gain|2|5\n"
    "tok|superseded|2\n"
    "tok|by|2\n"
    "tok|v2|2|4\n"
    "tok|square|3\n"
    "tok|waves|3\n"
    "tok|quarantined|5\n"
    "tok|crashed|5\n"
    "tok|run|5\n"
    "usr|alice|2|4\n"
    "usr|bob|3|5\n"
    "usr|ops|0|1\n"
    "typ|CircuitEditor|1010|1\n"
    "typ|EditedNetlist|1020|2|1040|4\n"
    "typ|Performance|1050|5\n"
    "typ|Simulator|1000|0\n"
    "typ|Stimuli|1030|3\n"
    "adj|5|-2450769804417912842\n"sv;

// `kLiveImage` as the previous format, HERCIDX1, wrote it: a header line
// whose checksum covered the sections but not the stamp in front of it.
constexpr std::string_view kHercidx1LiveImage =
    "HERCIDX1|0|0|6|-5394556595817318870\n"
    "tok|spice|0\n"
    "tok|ed|1\n"
    "tok|low|2|4\n"
    "tok|pass|2|4\n"
    "tok|filter|2|4|5\n"
    "tok|first|2\n"
    "tok|cut|2\n"
    "tok|square|3\n"
    "tok|waves|3\n"
    "tok|v2|2|4\n"
    "tok|gain|2|5\n"
    "tok|old|2\n"
    "tok|superseded|2\n"
    "tok|by|2\n"
    "tok|quarantined|5\n"
    "tok|crashed|5\n"
    "tok|run|5\n"
    "usr|alice|2|4\n"
    "usr|bob|3|5\n"
    "usr|ops|0|1\n"
    "typ|CircuitEditor|1010|1\n"
    "typ|EditedNetlist|1020|2|1040|4\n"
    "typ|Performance|1050|5\n"
    "typ|Simulator|1000|0\n"
    "typ|Stimuli|1030|3\n"
    "adj|5|-2450769804417912842\n";

/// Index pages equal bare scans for a filter of each class.
void expect_pages_match_scan(const HistoryDb& db, const HistoryIndexes& idx,
                             const schema::TaskSchema& schema,
                             const std::string& note) {
  std::vector<history::QueryFilter> filters(5);
  filters[0].keyword = "filter";
  filters[1].keyword = "zebra";
  filters[2].user = "alice";
  filters[3].type = schema.require("EditedNetlist");
  filters[4].keyword = "wav";
  for (const history::QueryFilter& filter : filters) {
    EXPECT_EQ(history::run_page(db, filter, &idx, 50).ids,
              history::run_page(db, filter, nullptr, 50).ids)
        << note << ": keyword '" << filter.keyword << "' user '"
        << filter.user << "'";
  }
}

TEST(IndexLayoutTest, ImageBytesAreTheFormatsOwn) {
  const schema::TaskSchema schema = schema::make_fig1_schema();
  support::ManualClock clock(1000, 10);
  const std::string dir =
      (fs::temp_directory_path() / "herc_index_layout_live").string();
  fs::remove_all(dir);
  storage::DurableHistory store(schema, clock, dir);
  HistoryDb& db = store.db();
  HistoryIndexes live(db);
  store.subscribe(live);
  populate_fixed(db, schema);
  EXPECT_EQ(live.image().serialize(), kLiveImage);

  HistoryIndexes rebuilt(db);
  rebuilt.rebuild();
  EXPECT_EQ(rebuilt.image().serialize(), kRebuiltImage);

  for (const std::string_view text : {kLiveImage, kRebuiltImage}) {
    IndexImage back;
    std::string error;
    ASSERT_TRUE(IndexImage::parse(text, back, error)) << error;
    EXPECT_EQ(back.serialize(), text);
  }
}

TEST(IndexLayoutTest, AnImageInTheFormatLoadsWithoutARebuild) {
  const schema::TaskSchema schema = schema::make_fig1_schema();
  support::ManualClock clock(1000, 10);
  HistoryDb db(schema, clock);
  populate_fixed(db, schema);
  const std::string dir =
      (fs::temp_directory_path() / "herc_index_layout_load").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    std::ofstream out(HistoryIndexes::file_path(dir), std::ios::binary);
    out << kLiveImage;
  }
  HistoryIndexes idx(db);
  const HistoryIndexes::OpenReport report = idx.open(dir, 0, {});
  EXPECT_TRUE(report.loaded) << report.reason;
  EXPECT_FALSE(report.rebuilt);
  EXPECT_EQ(idx.image().serialize(), kLiveImage);
  // The old name's stale postings stay: the planner re-verifies them.
  EXPECT_EQ(idx.name_candidates("low pass filter v2"),
            (std::vector<InstanceId>{InstanceId(2), InstanceId(4)}));
  fs::remove_all(dir);
}

TEST(IndexLayoutTest, AnImageInThePreviousFormatIsRefusedAndRebuilt) {
  const schema::TaskSchema schema = schema::make_fig1_schema();
  support::ManualClock clock(1000, 10);
  HistoryDb db(schema, clock);
  populate_fixed(db, schema);
  const std::string dir =
      (fs::temp_directory_path() / "herc_index_layout_hercidx1").string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    std::ofstream out(HistoryIndexes::file_path(dir), std::ios::binary);
    out << kHercidx1LiveImage;
  }
  HistoryIndexes idx(db);
  const HistoryIndexes::OpenReport report = idx.open(dir, 0, {});
  EXPECT_FALSE(report.loaded);
  EXPECT_TRUE(report.rebuilt);
  EXPECT_EQ(report.reason, "bad magic 'HERCIDX1'");
  EXPECT_EQ(idx.image().serialize(), kRebuiltImage);
  expect_pages_match_scan(db, idx, schema, "rebuilt");
  fs::remove_all(dir);
}

TEST(IndexLayoutTest, EveryBitOfTheStampIsChecked) {
  const schema::TaskSchema schema = schema::make_fig1_schema();
  support::ManualClock clock(1000, 10);
  const std::string dir =
      (fs::temp_directory_path() / "herc_index_layout_stamp").string();
  fs::remove_all(dir);
  storage::DurableHistory store(schema, clock, dir);
  HistoryDb& db = store.db();
  {
    HistoryIndexes live(db);
    store.subscribe(live);
    populate_fixed(db, schema);
    live.save(dir, store.epoch(), store.journal_seq());
    store.unsubscribe(live);
  }
  // Two frames the image has not seen: a stamp whose seq read one higher
  // would skip the first and lose its "zebra" posting.
  db.annotate(InstanceId(3), "zebra waves", "");
  db.annotate(InstanceId(1), "ed", "schematic editor");
  const std::vector<std::string> records = store.read_journal_records();
  const std::string path = HistoryIndexes::file_path(dir);
  const std::string image = support::read_file(path).value();
  {
    HistoryIndexes idx(db);
    const HistoryIndexes::OpenReport report =
        idx.open(dir, store.epoch(), records);
    ASSERT_TRUE(report.loaded) << report.reason;
    EXPECT_EQ(report.caught_up, 2u);
    expect_pages_match_scan(db, idx, schema, "unflipped");
  }

  // The magic, the envelope's length and checksum, and the stamp line: up
  // to the first line break after them.
  const std::size_t stamp_end = image.find('\n', 16) + 1;
  for (std::size_t at = 0; at < stamp_end; ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string flipped = image;
      flipped[at] = static_cast<char>(flipped[at] ^ (1 << bit));
      {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << flipped;
      }
      HistoryIndexes idx(db);
      const HistoryIndexes::OpenReport report =
          idx.open(dir, store.epoch(), records);
      const std::string note =
          "byte " + std::to_string(at) + " bit " + std::to_string(bit);
      EXPECT_FALSE(report.loaded) << note;
      EXPECT_TRUE(report.rebuilt) << note;
      expect_pages_match_scan(db, idx, schema, note);
    }
  }
  fs::remove_all(dir);
}

TEST(IndexLayoutTest, ParseRejectsARepeatedToken) {
  std::string text(kIndexMagic);
  support::seal(text, "stamp|0|0|0\ntok|low|2\ntok|pass|2\ntok|low|4\n");
  IndexImage out;
  std::string error;
  EXPECT_FALSE(IndexImage::parse(text, out, error));
  EXPECT_EQ(error, "duplicate token 'low'");
}

/// What a loader made of some bytes: the reason it refused them, or ""
/// and the image it adopted, serialized.
struct Verdict {
  std::string reason;
  std::string image;
  bool operator==(const Verdict&) const = default;
};

std::ostream& operator<<(std::ostream& out, const Verdict& verdict) {
  return out << (verdict.reason.empty() ? "adopted" : verdict.reason);
}

Verdict parsed(std::string_view bytes) {
  IndexImage image;
  std::string error;
  if (!IndexImage::parse(bytes, image, error)) return {error, ""};
  return {"", image.serialize()};
}

/// `bytes` written as `dir`'s index file and streamed in by `load_image`.
Verdict loaded(const std::string& dir, std::string_view bytes) {
  {
    std::ofstream out(HistoryIndexes::file_path(dir),
                      std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const HistoryIndexes::LoadedImage image = HistoryIndexes::load_image(dir);
  if (!image.image) return {image.error, ""};
  return {"", image.image->serialize()};
}

/// A scratch directory for one test, wiped on entry.
std::string fresh_dir(const std::string& name) {
  const std::string dir = (fs::temp_directory_path() / name).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(IndexLayoutTest, TheStreamedLoadAndParseAgreeOnEveryCutAndFlip) {
  const std::string dir = fresh_dir("herc_index_layout_streamed");
  const std::string_view image = kLiveImage;
  EXPECT_EQ(loaded(dir, image), (Verdict{"", std::string(image)}));
  EXPECT_EQ(parsed(image), (Verdict{"", std::string(image)}));

  for (std::size_t cut = 0; cut < image.size(); ++cut) {
    const std::string_view prefix = image.substr(0, cut);
    const Verdict verdict = parsed(prefix);
    EXPECT_FALSE(verdict.reason.empty()) << "cut " << cut;
    EXPECT_EQ(loaded(dir, prefix), verdict) << "cut " << cut;
  }

  // One region per part of the file: its bytes, and the reason a flipped
  // bit in them must give.
  const std::size_t stamp_end = image.find('\n', 16) + 1;
  const std::size_t tok_at = image.find("tok|low|");
  const std::size_t tok_end = image.find('\n', tok_at) + 1;
  const std::size_t adj_at = image.find("adj|");
  struct Region {
    std::string name;
    std::size_t begin;
    std::size_t end;
  };
  for (const Region& region :
       {Region{"magic", 0, 8}, Region{"length", 8, 12},
        Region{"checksum", 12, 16}, Region{"stamp", 16, stamp_end},
        Region{"tok line", tok_at, tok_end},
        Region{"adj line", adj_at, image.size()}}) {
    for (std::size_t at = region.begin; at < region.end; ++at) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string flipped(image);
        flipped[at] = static_cast<char>(flipped[at] ^ (1 << bit));
        const std::string note = region.name + ": byte " +
                                 std::to_string(at) + " bit " +
                                 std::to_string(bit);
        const Verdict verdict = parsed(flipped);
        EXPECT_EQ(loaded(dir, flipped), verdict) << note;
        if (region.name == "magic") {
          EXPECT_EQ(verdict.reason,
                    "bad magic '" + flipped.substr(0, 8) + "'")
              << note;
        } else {
          EXPECT_EQ(verdict.reason, "body checksum mismatch") << note;
        }
      }
    }
  }
  fs::remove_all(dir);
}

TEST(IndexLayoutTest, TheChecksumOutranksADefectAndTheFirstDefectWins) {
  const std::string dir = fresh_dir("herc_index_layout_reasons");
  const auto sealed = [](std::string_view payload) {
    std::string text(kIndexMagic);
    support::seal(text, payload);
    return text;
  };
  struct Case {
    std::string bytes;
    std::string reason;
  };
  std::string bad_checksum = sealed("stamp|0|0|0\nbogus|1\n");
  bad_checksum[12] = static_cast<char>(bad_checksum[12] ^ 1);
  const std::vector<Case> cases{
      {"", "bad magic ''"},
      {"HERCIDX1 rest", "bad magic 'HERCIDX1'"},
      {"HERCIDX2", "body checksum mismatch"},
      {bad_checksum, "body checksum mismatch"},
      {sealed("stamp|0|0|0\nbogus|1\n") + "x", "body checksum mismatch"},
      {sealed(""), "missing stamp line"},
      {sealed("stamp|0|0|0"), "missing stamp line"},
      {sealed("stamp|0|0|0\nbogus|1\n"), "unknown section 'bogus'"},
      {sealed("stamp|0|0|0\ntok|low|2\ntok|low|4\nbogus|1\n"),
       "duplicate token 'low'"},
      {sealed("stamp|0|0|0\ntok|low|2\nbogus|1\ntok|low|4\n"),
       "unknown section 'bogus'"},
      {sealed("stamp|0|0|0\ntok|a|1\ntok|b|1\ntok|a|x\ntok|b|2\n"),
       "duplicate token 'a'"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.reason);
    EXPECT_EQ(parsed(c.bytes), (Verdict{c.reason, ""}));
    EXPECT_EQ(loaded(dir, c.bytes), (Verdict{c.reason, ""}));
  }
  // Structural reasons from the record reader come out the same way too.
  for (const std::string_view payload :
       {"stamp|x|0|0\n"sv, "stamp|0|0|0\ntok|a|-1\n"sv,
        "stamp|0|0|0\nusr|bob|1|z\n"sv, "stamp|0|0|0\ntyp|S|5\n"sv}) {
    const std::string bytes = sealed(payload);
    const Verdict verdict = parsed(bytes);
    EXPECT_FALSE(verdict.reason.empty()) << payload;
    EXPECT_EQ(loaded(dir, bytes), verdict) << payload;
  }
  fs::remove(HistoryIndexes::file_path(dir));
  EXPECT_EQ(HistoryIndexes::load_image(dir).error, "no index file");
  fs::remove_all(dir);
}

TEST(IndexLayoutTest, ARepeatedListNameContinuesItsList) {
  // Each list is written at most `kListLineEntries` entries to a line; a
  // hand-written image with one type and one user split over two lines
  // each parses to the joined lists.
  std::string text(kIndexMagic);
  support::seal(text,
                "stamp|0|0|5\n"
                "usr|ada|0|1\nusr|bob|3\nusr|ada|2|4\n"
                "typ|Stimuli|100|0|110|1\ntyp|Stimuli|120|2|140|4\n"
                "typ|EditedNetlist|130|3\n"
                "adj|0|0\n");
  IndexImage image;
  std::string error;
  ASSERT_TRUE(IndexImage::parse(text, image, error)) << error;
  EXPECT_EQ(image.users.at("ada"),
            (std::vector<std::uint32_t>{0, 1, 2, 4}));
  EXPECT_EQ(image.users.at("bob"), std::vector<std::uint32_t>{3});
  EXPECT_EQ(image.by_type.at("Stimuli"),
            (std::vector<std::pair<std::int64_t, std::uint32_t>>{
                {100, 0}, {110, 1}, {120, 2}, {140, 4}}));
  EXPECT_EQ(image.by_type.at("EditedNetlist").size(), 1u);
}

TEST(IndexLayoutTest, AnImageLargerThanTheReadWindowStreamsIn) {
  IndexImage image;
  for (std::uint32_t id = 0; id < 150'000; ++id) {
    image.add_instance(id, "Stimuli", "wave" + std::to_string(id),
                       id % 3 == 0 ? "bob" : "ada", 100 + id, "",
                       data::InstanceId(), {});
  }
  const std::string bytes = image.serialize();
  ASSERT_GT(bytes.size(), 2 * support::FileReader::kWindowBytes);
  // A 150k-entry type list and 100k-entry user list are written a few
  // thousand entries to a line, so no line outgrows the read window.
  std::size_t longest = 0;
  std::size_t typ_lines = 0;
  for (const std::string_view line : support::Lines(bytes)) {
    longest = std::max(longest, line.size());
    if (line.starts_with("typ|")) ++typ_lines;
  }
  EXPECT_LE(longest, support::FileReader::kWindowBytes);
  EXPECT_EQ(typ_lines, (150'000 + kListLineEntries - 1) / kListLineEntries);
  const std::string dir = fresh_dir("herc_index_layout_large");
  const HistoryIndexes::LoadedImage back = [&] {
    std::ofstream(HistoryIndexes::file_path(dir), std::ios::binary) << bytes;
    return HistoryIndexes::load_image(dir);
  }();
  ASSERT_TRUE(back.image.has_value()) << back.error;
  EXPECT_EQ(back.image->serialize(), bytes);
  EXPECT_EQ(back.image->tokens.find("wave149999"), 149'999u);
  EXPECT_EQ(back.image->by_type.at("Stimuli").size(), 150'000u);
  EXPECT_EQ(back.image->users.at("ada").size(), 100'000u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace herc::index
