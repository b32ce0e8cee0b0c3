// Line-oriented record serialization.
//
// History databases and flow catalogs persist to a plain-text format, one
// record per line:
//
//   kind|field1|field2|...
//
// Fields are escaped with `escape_field`, so values may contain the
// separator or newlines.  The format is deliberately trivial: the paper's
// point is that the *schema* of the history database is the task schema
// itself, not that the storage layer is sophisticated.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace herc::support {

/// Builds one record line.
class RecordWriter {
 public:
  explicit RecordWriter(std::string_view kind);

  RecordWriter& field(std::string_view value);
  RecordWriter& field(std::int64_t value);
  RecordWriter& field(std::uint32_t value);
  RecordWriter& field(double value);

  /// The finished line (no trailing newline).
  [[nodiscard]] std::string str() const { return line_; }

 private:
  std::string line_;
};

/// Parses one record line; fields are pulled in order.
///
/// The reader holds a view of the line, not a copy, so the line must
/// outlive the reader.  Fields are found as they are pulled: the line is
/// searched for a `\` once, so in a line without one each field ends at
/// the next `|`; a field is unescaped only when it contains a `\`, and
/// integer fields are parsed in place.
class RecordReader {
 public:
  /// Throws `ParseError` on an empty line.
  explicit RecordReader(std::string_view line);

  /// The kind, verbatim (escapes in it are not resolved).
  [[nodiscard]] std::string_view kind() const { return kind_; }

  /// Number of fields following the kind.
  [[nodiscard]] std::size_t size() const;

  /// One field as it stands in the line: when `escaped` (it holds a `\`)
  /// its value is `unescape_field(text)`, otherwise `text` itself.
  struct Field {
    std::string_view text;
    bool escaped = false;
  };

  /// Throws `ParseError` when no fields remain.  Inline, as replay reads
  /// every field of every line through it.
  Field next_field();
  std::string next_string();
  std::int64_t next_int64();
  std::uint32_t next_uint32();
  double next_double();

  [[nodiscard]] bool exhausted() const { return next_ > line_.size(); }

 private:
  /// The offset of the first `c` at or after `from`, or the line's size.
  static std::size_t find(std::string_view line, std::size_t from, char c);
  /// Scans the field that starts at `from`: returns the offset of the `|`
  /// that ends it (or the line's size), and sets `escaped` when the field
  /// holds a `\`.  A `\` takes the byte after it, so `\|` ends no field.
  /// `slash` is the offset of the first `\` at or after `from`, the
  /// line's size when there is none, or an offset before `from`, and then
  /// the `\` is looked for again; it is kept up to date for the next
  /// field.
  static std::size_t field_end(std::string_view line, std::size_t from,
                               std::size_t& slash, bool& escaped);
  [[noreturn]] void fail(std::string_view what) const;

  std::string_view line_;
  std::string_view kind_;
  /// Offset of the next field's first byte; past the end when exhausted.
  std::size_t next_ = 0;
  /// Offset of the first `\` at or after `next_` (the line's size when
  /// there is none), or of an earlier one, looked for again when a field
  /// starts past it.
  std::size_t slash_ = 0;
};

inline std::size_t RecordReader::find(std::string_view line,
                                      std::size_t from, char c) {
  std::size_t near = from;
  if constexpr (std::endian::native == std::endian::little) {
    // Most fields are a few bytes long: look at their first 16 eight at a
    // time before calling out.  In `x`, the bytes equal to `c` are zero;
    // the lowest high bit of `hit` marks the first of them (a borrow can
    // only set bits above it).
    constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
    const std::uint64_t pattern = kOnes * static_cast<unsigned char>(c);
    for (; near + 8 <= line.size() && near < from + 16; near += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, line.data() + near, sizeof word);
      const std::uint64_t x = word ^ pattern;
      const std::uint64_t hit = (x - kOnes) & ~x & (kOnes << 7);
      if (hit != 0) {
        return near + static_cast<std::size_t>(std::countr_zero(hit)) / 8;
      }
    }
  }
  const void* const at =
      std::memchr(line.data() + near, c, line.size() - near);
  return at == nullptr ? line.size()
                       : static_cast<std::size_t>(
                             static_cast<const char*>(at) - line.data());
}

inline std::size_t RecordReader::field_end(std::string_view line,
                                           std::size_t from,
                                           std::size_t& slash,
                                           bool& escaped) {
  if (slash < from) slash = find(line, from, '\\');
  const std::size_t bar = find(line, from, '|');
  // Equal only at the line's end: a field with no `\` in it.
  if (bar <= slash) return bar;
  escaped = true;
  for (std::size_t i = slash; i < line.size(); ++i) {
    if (line[i] == '\\') {
      ++i;
    } else if (line[i] == '|') {
      return i;
    }
  }
  return line.size();
}

inline RecordReader::Field RecordReader::next_field() {
  if (exhausted()) fail("ran out of fields");
  Field field;
  const std::size_t end = field_end(line_, next_, slash_, field.escaped);
  field.text = line_.substr(next_, end - next_);
  next_ = end + 1;
  return field;
}

}  // namespace herc::support
