// The flat layouts behind the keyword index (src/index/arena.hpp): the
// token dictionary and the posting lists checked against standard
// containers over seeded random operation sequences, and the bytes of
// `indexes.herc` pinned to what the format has always been, so a server
// that opens an image written before the flat layout loads it instead of
// rebuilding it.
#include <gtest/gtest.h>

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
#include "index/arena.hpp"
#include "index/indexes.hpp"
#include "property_seed.hpp"
#include "schema/standard_schemas.hpp"
#include "storage/store.hpp"
#include "support/clock.hpp"
#include "support/hash.hpp"
#include "support/record.hpp"

namespace herc::index {
namespace {

namespace fs = std::filesystem;
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

// The bytes below were written by the index before its flat layout: the
// image an observer kept current through the history above, and the image
// a rebuild makes from the final table (tokens in a different first-seen
// order, and no stale postings).
constexpr std::string_view kLiveImage =
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

constexpr std::string_view kRebuiltImage =
    "HERCIDX1|0|0|6|2945344551666481110\n"
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
    "adj|5|-2450769804417912842\n";

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

TEST(IndexLayoutTest, ParseRejectsARepeatedToken) {
  const std::string body = "tok|low|2\ntok|pass|2\ntok|low|4\n";
  support::RecordWriter header(kIndexMagic);
  header.field(std::int64_t{0});
  header.field(std::int64_t{0});
  header.field(std::uint32_t{0});
  header.field(static_cast<std::int64_t>(support::fnv1a(body)));
  IndexImage out;
  std::string error;
  EXPECT_FALSE(IndexImage::parse(header.str() + "\n" + body, out, error));
  EXPECT_EQ(error, "duplicate token 'low'");
}

}  // namespace
}  // namespace herc::index
