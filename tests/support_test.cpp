// Foundation utilities: text, records, files, hashing, clock, DOT, ids, blobs.
#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <random>

#include "data/blob_store.hpp"
#include "support/clock.hpp"
#include "support/dot.hpp"
#include "support/error.hpp"
#include "support/file.hpp"
#include "support/hash.hpp"
#include "support/ids.hpp"
#include "support/record.hpp"
#include "support/text.hpp"
#include "file_size_cap.hpp"
#include "property_seed.hpp"

namespace herc::support {
namespace {

TEST(Text, Trim) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Text, Split) {
  EXPECT_EQ(split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split("", ','), std::vector<std::string>{""});
  EXPECT_EQ(split_ws("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(Text, ParseIntTakesWholeInRangeDecimalsOnly) {
  // The command-line numbers that `stoul`-style parsing let through: a
  // value that wraps into another id, a sign on an unsigned count, and
  // trailing junk.
  const std::pair<const char*, std::optional<std::uint32_t>> u32[] = {
      {"0", 0u},
      {"4294967295", 4294967295u},
      {"4294967296", std::nullopt},
      {"4294967297", std::nullopt},
      {"-1", std::nullopt},
      {"+1", std::nullopt},
      {" 1", std::nullopt},
      {"1 ", std::nullopt},
      {"3x", std::nullopt},
      {"12abc", std::nullopt},
      {"abc", std::nullopt},
      {"", std::nullopt},
  };
  for (const auto& [text, want] : u32) {
    EXPECT_EQ(parse_int<std::uint32_t>(text), want) << "'" << text << "'";
  }
  EXPECT_EQ(parse_int<std::uint64_t>("18446744073709551615"),
            18446744073709551615ull);
  EXPECT_EQ(parse_int<std::uint64_t>("18446744073709551616"), std::nullopt);
  EXPECT_EQ(parse_int<std::int64_t>("-12"), -12);
  EXPECT_EQ(parse_int<std::int64_t>("-"), std::nullopt);
  EXPECT_EQ(parse_int<std::int64_t>("12abc"), std::nullopt);
  EXPECT_EQ(parse_int<std::int64_t>("9223372036854775808"), std::nullopt);
}

TEST(Text, ParseDoubleTakesWholeFiniteDecimalsOnly) {
  // What `std::stod` let through: a prefix with trailing junk, a leading
  // sign or space, and the non-finite spellings.
  const std::pair<const char*, std::optional<double>> cases[] = {
      {"1.5", 1.5},
      {"-0.25", -0.25},
      {"2", 2.0},
      {"1e-3", 1e-3},
      {".5", 0.5},
      {"1.5x", std::nullopt},
      {"12abc", std::nullopt},
      {"+1", std::nullopt},
      {" 1", std::nullopt},
      {"1 ", std::nullopt},
      {"nan", std::nullopt},
      {"inf", std::nullopt},
      {"-inf", std::nullopt},
      {"infinity", std::nullopt},
      {"1e999", std::nullopt},
      {"0x1p3", std::nullopt},
      {"", std::nullopt},
      {"-", std::nullopt},
  };
  for (const auto& [text, want] : cases) {
    EXPECT_EQ(parse_double(text), want) << "'" << text << "'";
  }
}

TEST(Text, LinesViewTheSamePiecesAsSplit) {
  for (const std::string_view text :
       {"", "a", "a\n", "\n", "a\nb", "a\n\nb\n", "\n\n", "|\\\n"}) {
    std::vector<std::string> pieces;
    for (const std::string_view line : Lines(text)) pieces.emplace_back(line);
    EXPECT_EQ(pieces, split(text, '\n')) << "text '" << text << "'";
  }
}

TEST(File, ReadFileReturnsTheBytesOrNothing) {
  const std::string path = ::testing::TempDir() + "herc_read_file_test";
  const std::string bytes("a\0b\r\n|\\\xff", 8);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }
  EXPECT_EQ(read_file(path), bytes);
  std::remove(path.c_str());
  EXPECT_EQ(read_file(path), std::nullopt);
}

// ---- the durable-write seam -------------------------------------------------

/// A fresh directory for one test of the seam, removed when it ends.
class FileSeam : public ::testing::Test {
 protected:
  FileSeam()
      : dir_(std::filesystem::path(::testing::TempDir()) /
             ("herc_file_seam_" +
              std::string(::testing::UnitTest::GetInstance()
                               ->current_test_info()
                               ->name()))) {
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  ~FileSeam() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string at(std::string_view name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

using testfile::failure_of;

TEST_F(FileSeam, WriteFileAtomicWritesThePiecesInOrder) {
  const std::string path = at("snapshot");
  write_file_atomic(path, {"snap|1|2", "\n", "", "inst|a\n", "inst|b\n"});
  EXPECT_EQ(read_file(path), "snap|1|2\ninst|a\ninst|b\n");
  write_file_atomic(path, {"replaced"});
  EXPECT_EQ(read_file(path), "replaced");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(FileSeam, AFailedFsyncIsReportedAndLeavesTheFile) {
  // /dev/null takes the writes but refuses fsync (EINVAL).  Only a symlink
  // in the test's directory points at it: no path under /dev is ever a
  // write target, since the rename would replace the device node.
  const std::string path = at("snapshot");
  write_file_atomic(path, {"old"});
  std::filesystem::create_symlink("/dev/null", path + ".tmp");
  const std::string error =
      failure_of([&] { write_file_atomic(path, {"new"}); });
  EXPECT_NE(error.find(path + ".tmp"), std::string::npos) << error;
  EXPECT_NE(error.find(std::strerror(EINVAL)), std::string::npos) << error;
  EXPECT_EQ(read_file(path), "old");
  EXPECT_FALSE(std::filesystem::is_symlink(path));
}

TEST_F(FileSeam, AFailureSticksAfterItsCauseIsGone) {
  const std::string path = at("journal");
  testfile::expect_verdict_zero(
      [&] {
        testfile::cap_file_size(4);
        AppendFile file(path, 0);
        file.append("past the cap");  // buffered: nothing written yet
        const std::string first = failure_of([&] { file.sync(); });
        if (first.find(std::strerror(EFBIG)) == std::string::npos) return 1;
        if (first.find(path) == std::string::npos) return 2;
        testfile::lift_file_size_cap();
        if (failure_of([&] { file.append("x"); }) != first) return 3;
        if (failure_of([&] { file.sync(); }) != first) return 4;
        return 0;
      },
      dir_);
}

TEST_F(FileSeam, OpeningCutsOnlyATornTail) {
  namespace fs = std::filesystem;
  const std::string path = at("journal");
  write_file_atomic(path, {"header", "torn"});
  const fs::file_time_type written =
      fs::file_time_type::clock::now() - std::chrono::hours(1);
  fs::last_write_time(path, written);
  { AppendFile clean(path, 10); }
  EXPECT_EQ(fs::last_write_time(path), written) << "a clean open wrote";
  {
    AppendFile torn(path, 6);
    torn.append("more");
    torn.sync();
  }
  EXPECT_EQ(read_file(path), "headermore");
}

TEST_F(FileSeam, RemoveFileRemovesAndReportsWhatItCannot) {
  const std::string path = at("replica.herc");
  write_file_atomic(path, {"replica base 1 0\n"});
  remove_file(path);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_NO_THROW(remove_file(path));
  // A directory that is not empty cannot go.
  write_file_atomic(at("kept"), {"x"});
  EXPECT_THROW(remove_file(dir_.string()), HistoryError);
}

TEST(Text, JsonEscapeCoversQuotesBackslashesAndEveryControlByte) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("say \"hi\" \\ bye"), "say \\\"hi\\\" \\\\ bye");
  EXPECT_EQ(json_escape("a\nb\tc\rd"), "a\\nb\\tc\\u000dd");
  EXPECT_EQ(json_escape(std::string("\x01\x1f\0", 3)),
            "\\u0001\\u001f\\u0000");
  EXPECT_EQ(json_escape("caf\xc3\xa9"), "caf\xc3\xa9");  // UTF-8 passes through
}

TEST(Text, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"x"}, ","), "x");
}

TEST(Text, CaseInsensitiveContains) {
  EXPECT_TRUE(icontains("Low Pass Filter", "pass"));
  EXPECT_TRUE(icontains("abc", ""));
  EXPECT_FALSE(icontains("short", "longer than haystack"));
  EXPECT_FALSE(icontains("abc", "d"));
}

TEST(Text, FieldEscapingRoundTrips) {
  const std::string nasty = "a|b\\c\nd\\ne|p\\p";
  EXPECT_EQ(unescape_field(escape_field(nasty)), nasty);
  EXPECT_EQ(escape_field("plain"), "plain");
  // Escaped text never contains a bare separator or newline.
  const std::string escaped = escape_field(nasty);
  EXPECT_EQ(escaped.find('\n'), std::string::npos);
  for (std::size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] == '|') {
      ASSERT_GT(i, 0u);
      EXPECT_EQ(escaped[i - 1], '\\');
    }
  }
}

TEST(Text, IdentifierValidation) {
  EXPECT_TRUE(is_identifier("Netlist"));
  EXPECT_TRUE(is_identifier("_x9.y-z"));
  EXPECT_FALSE(is_identifier("9x"));
  EXPECT_FALSE(is_identifier("a b"));
  EXPECT_FALSE(is_identifier(""));
  EXPECT_FALSE(is_identifier(".dot"));
}

TEST(Record, RoundTripsTypedFields) {
  const std::string line = RecordWriter("kind")
                               .field("text with | pipe\nand newline")
                               .field(std::int64_t{-42})
                               .field(std::uint32_t{7})
                               .field(3.25)
                               .str();
  RecordReader reader(line);
  EXPECT_EQ(reader.kind(), "kind");
  EXPECT_EQ(reader.size(), 4u);
  EXPECT_EQ(reader.next_string(), "text with | pipe\nand newline");
  EXPECT_EQ(reader.next_int64(), -42);
  EXPECT_EQ(reader.next_uint32(), 7u);
  EXPECT_DOUBLE_EQ(reader.next_double(), 3.25);
  EXPECT_TRUE(reader.exhausted());

  // Raw lines and what the reader returns for them: the kind verbatim,
  // each field unescaped (unknown escapes drop the backslash, a trailing
  // lone backslash stays).
  struct Case {
    std::string_view line;
    std::string_view kind;
    std::vector<std::string> fields;
  };
  const Case cases[] = {
      {R"(k|a\\b)", "k", {R"(a\b)"}},
      {R"(k|a\pb)", "k", {"a|b"}},
      {R"(k|a\nb)", "k", {"a\nb"}},
      {R"(k|\q)", "k", {"q"}},
      {R"(k|ab\)", "k", {R"(ab\)"}},
      {R"(k|\)", "k", {R"(\)"}},
      {"k||", "k", {"", ""}},
      {"k|", "k", {""}},
      {"k", "k", {}},
      {R"(k|1\2)", "k", {"12"}},
      {R"(k\pz|x)", R"(k\pz)", {"x"}},
      {R"(k\)", R"(k\)", {}},
      {R"(k|a\|b)", "k", {"a|b"}},
      {R"(k|a\\|b)", "k", {R"(a\)", "b"}},
      {R"(k|\p|\n\\)", "k", {"|", "\n\\"}},
      {" k|x", " k", {"x"}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.line));
    RecordReader r(c.line);
    EXPECT_EQ(r.kind(), c.kind);
    EXPECT_EQ(r.size(), c.fields.size());
    for (const std::string& field : c.fields) {
      ASSERT_FALSE(r.exhausted());
      EXPECT_EQ(r.next_string(), field);
    }
    EXPECT_TRUE(r.exhausted());
  }

  // Integer fields: an escape inside one is resolved before parsing.
  EXPECT_EQ(RecordReader(R"(k|1\2)").next_int64(), 12);
  EXPECT_EQ(RecordReader(R"(k|\-5)").next_int64(), -5);
  EXPECT_EQ(RecordReader(R"(k|-\5)").next_int64(), -5);
  EXPECT_EQ(RecordReader(R"(k|7\)").next_string(), R"(7\)");
  EXPECT_DOUBLE_EQ(RecordReader(R"(k|1\.5)").next_double(), 1.5);
  EXPECT_DOUBLE_EQ(RecordReader("k| 1.5").next_double(), 1.5);
}

TEST(Record, Errors) {
  EXPECT_THROW(RecordReader("  "), ParseError);
  RecordReader r("k|notanumber");
  EXPECT_THROW(r.next_int64(), ParseError);
  RecordReader r2("k");
  EXPECT_THROW(r2.next_string(), ParseError);
  RecordReader r3("k|4294967296");  // out of uint32 range
  EXPECT_THROW(r3.next_uint32(), ParseError);
  RecordReader r4("k|1.5x");
  EXPECT_THROW(r4.next_double(), ParseError);

  EXPECT_THROW(RecordReader(""), ParseError);
  EXPECT_THROW(RecordReader("\t\n"), ParseError);
  for (const std::string_view line :
       {"k|", "k||", "k|+5", "k| 5", "k|5 ", R"(k|ab\)", R"(k|\q)"}) {
    SCOPED_TRACE(std::string(line));
    RecordReader r(line);
    EXPECT_THROW(r.next_int64(), ParseError);
  }
  EXPECT_THROW(RecordReader("k|1.5 ").next_double(), ParseError);

  // Messages name the kind verbatim and the field as unescaped.
  const auto message = [](std::string_view line, auto pull) {
    RecordReader r(line);
    try {
      pull(r);
    } catch (const ParseError& e) {
      return std::string(e.what());
    }
    return std::string("no error");
  };
  const auto int64 = [](RecordReader& r) { (void)r.next_int64(); };
  const auto string = [](RecordReader& r) {
    (void)r.next_string();
    (void)r.next_string();
  };
  EXPECT_EQ(message(R"(k|ab\)", int64),
            R"(record 'k': bad integer field 'ab\')");
  EXPECT_EQ(message(R"(k\pz|x)", int64),
            R"(record 'k\pz': bad integer field 'x')");
  EXPECT_EQ(message(R"(k|a\pb)", int64),
            "record 'k': bad integer field 'a|b'");
  EXPECT_EQ(message("k|a", string), "record 'k': ran out of fields");

  // A field that fails to parse is still consumed.
  RecordReader r5("k|x|7");
  EXPECT_THROW(r5.next_int64(), ParseError);
  EXPECT_EQ(r5.next_int64(), 7);
  EXPECT_TRUE(r5.exhausted());
}

/// The reader's contract written out plainly: split on every `|` not
/// taken by a preceding `\`, keep the kind verbatim, unescape the fields.
std::vector<std::string> reference_split(std::string_view line) {
  std::vector<std::string> out(1);
  for (std::size_t i = 0; i < line.size(); ++i) {
    if (line[i] == '\\' && i + 1 < line.size()) {
      out.back() += line.substr(i, 2);
      ++i;
    } else if (line[i] == '|') {
      out.emplace_back();
    } else {
      out.back() += line[i];
    }
  }
  for (std::size_t i = 1; i < out.size(); ++i) out[i] = unescape_field(out[i]);
  return out;
}

TEST(Record, RandomFieldsRoundTripAndMatchTheReference) {
  const std::uint64_t seed = testprop::base_seed(0x5eedf1e1d5ULL);
  SCOPED_TRACE(testprop::seed_note(seed));
  std::mt19937_64 rng(seed);
  constexpr std::string_view kAlphabet = "\\|\na0";
  const auto random_text = [&](std::size_t max_len) {
    std::string s(rng() % (max_len + 1), ' ');
    for (char& c : s) c = kAlphabet[rng() % kAlphabet.size()];
    return s;
  };
  for (int trial = 0; trial < 2000; ++trial) {
    // Written fields read back exactly.
    std::vector<std::string> fields(1 + rng() % 5);
    RecordWriter writer("k");
    for (std::string& f : fields) {
      f = random_text(12);
      writer.field(f);
    }
    const std::string line = writer.str();
    SCOPED_TRACE(line);
    RecordReader r(line);
    EXPECT_EQ(r.kind(), "k");
    EXPECT_EQ(r.size(), fields.size());
    for (const std::string& f : fields) EXPECT_EQ(r.next_string(), f);
    EXPECT_TRUE(r.exhausted());

    // Any raw line splits as the reference does.
    const std::string raw = random_text(16);
    SCOPED_TRACE(raw);
    if (trim(raw).empty()) {
      EXPECT_THROW(RecordReader{raw}, ParseError);
      continue;
    }
    const std::vector<std::string> want = reference_split(raw);
    RecordReader rr(raw);
    EXPECT_EQ(rr.kind(), want.front());
    EXPECT_EQ(rr.size(), want.size() - 1);
    for (std::size_t i = 1; i < want.size(); ++i) {
      EXPECT_EQ(rr.next_string(), want[i]);
    }
    EXPECT_TRUE(rr.exhausted());
  }
}

TEST(Hash, StableAndHexFormatted) {
  EXPECT_EQ(fnv1a("hello"), fnv1a("hello"));
  EXPECT_NE(fnv1a("hello"), fnv1a("hellp"));
  EXPECT_EQ(hash_hex(fnv1a("")).size(), 16u);
  // Incremental hashing agrees with one-shot.
  EXPECT_EQ(fnv1a_append(fnv1a("ab"), "cd"), fnv1a("abcd"));
}

TEST(Clock, TimestampFormatting) {
  // 1992-10-01 14:22:00 UTC (the Fig. 9 browser era).
  const Timestamp t(717949320000000LL);
  EXPECT_EQ(t.to_string(), "1992-10-01 14:22:00.000000");
  EXPECT_LT(Timestamp(1), Timestamp(2));
}

TEST(Clock, ManualClockTicksDeterministically) {
  ManualClock clock(100, 5);
  EXPECT_EQ(clock.now().micros(), 100);
  EXPECT_EQ(clock.now().micros(), 105);
  clock.advance(1000);
  EXPECT_EQ(clock.now().micros(), 1110);
  clock.set(0);
  EXPECT_EQ(clock.now().micros(), 0);
}

TEST(Dot, BuildsWellFormedDigraph) {
  DotBuilder dot("g");
  dot.graph_attr("rankdir", "BT");
  dot.node("a", "Label \"quoted\"", {"shape=\"box\""});
  dot.edge("a", "b", "fd", {"style=\"dashed\""});
  const std::string out = dot.str();
  EXPECT_NE(out.find("digraph \"g\""), std::string::npos);
  EXPECT_NE(out.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(out.find("\"a\" -> \"b\""), std::string::npos);
  EXPECT_EQ(out.back(), '\n');
}

TEST(Ids, TypedIdBasics) {
  struct Tag {};
  using TestId = Id<Tag>;
  const TestId invalid;
  EXPECT_FALSE(invalid.valid());
  const TestId five(5);
  EXPECT_TRUE(five.valid());
  EXPECT_EQ(five.value(), 5u);
  EXPECT_LT(TestId(1), TestId(2));
  EXPECT_NE(TestId(1), TestId(2));
  EXPECT_EQ(IdHash{}(five), IdHash{}(TestId(5)));
}

TEST(BlobStore, DeduplicatesContent) {
  data::BlobStore store;
  const auto k1 = store.put("payload");
  const auto k2 = store.put("payload");
  const auto k3 = store.put("other");
  EXPECT_EQ(k1, k2);
  EXPECT_NE(k1, k3);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.get(k1), "payload");
  EXPECT_EQ(store.bytes_stored(), 12u);   // "payload" + "other"
  EXPECT_EQ(store.bytes_logical(), 19u);  // 7 + 7 + 5
  EXPECT_TRUE(store.contains(k3));
  EXPECT_THROW((void)store.get("0000000000000000"), HistoryError);
}

}  // namespace
}  // namespace herc::support
