// Small string utilities shared across the framework.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace herc::support {

/// Strips leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Splits on `sep`, keeping empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// The `\n`-separated pieces of a text, as views into it: the same pieces
/// `split(text, '\n')` copies out, so a final newline yields a last empty
/// piece.  The text must outlive the iteration.
///
///   for (const std::string_view line : Lines(text)) ...
class Lines {
 public:
  explicit Lines(std::string_view text) : text_(text) {}

  class iterator {
   public:
    iterator(std::string_view text, std::size_t at) : text_(text), at_(at) {
      find_end();
    }

    std::string_view operator*() const {
      return text_.substr(at_, end_ - at_);
    }
    iterator& operator++() {
      at_ = end_ + 1;
      find_end();
      return *this;
    }
    bool operator==(const iterator& other) const { return at_ == other.at_; }

   private:
    void find_end() {
      if (at_ > text_.size()) return;
      end_ = text_.find('\n', at_);
      if (end_ == std::string_view::npos) end_ = text_.size();
    }

    std::string_view text_;
    /// Start of the current piece; one past the end once iteration is over.
    std::size_t at_ = 0;
    std::size_t end_ = 0;
  };

  [[nodiscard]] iterator begin() const { return {text_, 0}; }
  [[nodiscard]] iterator end() const { return {text_, text_.size() + 1}; }

 private:
  std::string_view text_;
};

/// Splits on runs of whitespace, dropping empty fields.
[[nodiscard]] std::vector<std::string> split_ws(std::string_view s);

/// `prefix` then `n` in decimal: "i" and 42 give "i42", as instance, node
/// and net names are spelled.  It appends, where `"i" + std::to_string(n)`
/// trips GCC 12's -Wrestrict in optimized builds.
[[nodiscard]] std::string numbered(std::string_view prefix, std::uint64_t n);

/// Joins with `sep` between elements.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// Case-insensitive substring test (used by browser keyword filters).
[[nodiscard]] bool icontains(std::string_view haystack,
                             std::string_view needle);

/// Escapes `\`, newline, and the field separator `|` so a value can be
/// embedded in one field of a line-oriented record.
[[nodiscard]] std::string escape_field(std::string_view s);

/// Inverse of `escape_field`.
[[nodiscard]] std::string unescape_field(std::string_view s);

/// `text` escaped for the inside of a JSON string: `"` and `\` get a
/// backslash, newline and tab their short escapes, and every other byte
/// below 0x20 a `\u00XX` escape, so any text yields valid JSON.
[[nodiscard]] std::string json_escape(std::string_view text);

/// Parses all of `text` as a decimal `T`, or nullopt.  Unlike `std::stoul`
/// and friends it takes no leading space or `+`, no `-` unless `T` is
/// signed, no trailing characters, and no value outside `T`'s range, so a
/// number never wraps or truncates into a different one.
template <typename T>
[[nodiscard]] std::optional<T> parse_int(std::string_view text) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

/// Parses all of `text` as a finite decimal `double`, or nullopt.  Like
/// `parse_int` it takes no leading space or `+` and no trailing characters;
/// unlike `std::stod` it also refuses `nan`, `inf`, hexadecimal floats and
/// values out of `double`'s range.
[[nodiscard]] std::optional<double> parse_double(std::string_view text);

/// True when `name` is a legal identifier for schema entities and
/// encapsulations: `[A-Za-z_][A-Za-z0-9_.-]*`.
[[nodiscard]] bool is_identifier(std::string_view name);

}  // namespace herc::support
