#include "support/record.hpp"

#include <charconv>

#include "support/error.hpp"
#include "support/text.hpp"

namespace herc::support {

RecordWriter::RecordWriter(std::string_view kind) : line_(kind) {}

RecordWriter& RecordWriter::field(std::string_view value) {
  line_ += '|';
  line_ += escape_field(value);
  return *this;
}

RecordWriter& RecordWriter::field(std::int64_t value) {
  line_ += '|';
  line_ += std::to_string(value);
  return *this;
}

RecordWriter& RecordWriter::field(std::uint32_t value) {
  line_ += '|';
  line_ += std::to_string(value);
  return *this;
}

RecordWriter& RecordWriter::field(double value) {
  line_ += '|';
  char buf[64];
  const auto [ptr, ec] =
      std::to_chars(buf, buf + sizeof(buf), value,
                    std::chars_format::general, 17);
  line_.append(buf, ptr);
  (void)ec;
  return *this;
}

RecordReader::RecordReader(std::string_view line)
    : line_(line), slash_(find(line, 0, '\\')) {
  if (trim(line).empty()) throw ParseError("empty record line");
  bool escaped = false;
  const std::size_t end = field_end(line, 0, slash_, escaped);
  kind_ = line.substr(0, end);
  next_ = end + 1;
}

std::size_t RecordReader::size() const {
  std::size_t n = 0;
  std::size_t slash = 0;
  bool escaped = false;
  for (std::size_t at = kind_.size() + 1; at <= line_.size();
       at = field_end(line_, at, slash, escaped) + 1) {
    ++n;
  }
  return n;
}

void RecordReader::fail(std::string_view what) const {
  throw ParseError("record '" + std::string(kind_) + "': " +
                   std::string(what));
}

std::string RecordReader::next_string() {
  const Field field = next_field();
  return field.escaped ? unescape_field(field.text) : std::string(field.text);
}

std::int64_t RecordReader::next_int64() {
  const Field field = next_field();
  std::string unescaped;
  std::string_view digits = field.text;
  if (field.escaped) {
    unescaped = unescape_field(field.text);
    digits = unescaped;
  }
  std::int64_t v = 0;
  const char* const end = digits.data() + digits.size();
  const auto [ptr, ec] = std::from_chars(digits.data(), end, v);
  if (ec != std::errc() || ptr != end) {
    fail("bad integer field '" + std::string(digits) + "'");
  }
  return v;
}

std::uint32_t RecordReader::next_uint32() {
  const std::int64_t v = next_int64();
  if (v < 0 || v > 0xffffffffLL) fail("field out of uint32 range");
  return static_cast<std::uint32_t>(v);
}

double RecordReader::next_double() {
  const std::string s = next_string();
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(s, &pos);
  } catch (const std::exception&) {
    fail("bad double field '" + s + "'");
  }
  if (pos != s.size()) fail("bad double field '" + s + "'");
  return v;
}

}  // namespace herc::support
