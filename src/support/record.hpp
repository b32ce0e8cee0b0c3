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

#include <cstdint>
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
/// outlive the reader.  Fields are found as they are pulled: a field is
/// unescaped only when it contains a `\`, and integer fields are parsed
/// in place.
class RecordReader {
 public:
  /// Throws `ParseError` on an empty line.
  explicit RecordReader(std::string_view line);

  /// The kind, verbatim (escapes in it are not resolved).
  [[nodiscard]] std::string_view kind() const { return kind_; }

  /// Number of fields following the kind.
  [[nodiscard]] std::size_t size() const;

  /// Throws `ParseError` when no fields remain.
  std::string next_string();
  std::int64_t next_int64();
  std::uint32_t next_uint32();
  double next_double();

  [[nodiscard]] bool exhausted() const { return next_ > line_.size(); }

 private:
  /// One field as it stands in the line; `escaped` when it holds a `\`.
  struct RawField {
    std::string_view text;
    bool escaped = false;
  };

  /// Consumes the next field.  Throws `ParseError` when none remain.
  RawField next_raw();
  [[noreturn]] void fail(std::string_view what) const;

  std::string_view line_;
  std::string_view kind_;
  /// Offset of the next field's first byte; past the end when exhausted.
  std::size_t next_ = 0;
};

}  // namespace herc::support
