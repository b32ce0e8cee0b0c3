#include "tools/composite.hpp"

#include "support/error.hpp"
#include "support/text.hpp"

namespace herc::tools {

using support::ExecError;

namespace {
constexpr std::string_view kHeader = "@composite";
constexpr std::string_view kPart = "@part ";
}  // namespace

std::string join_composite(const std::vector<std::string>& parts) {
  std::string out(kHeader);
  out += support::numbered(" ", parts.size());
  out += '\n';
  for (const std::string& part : parts) {
    // Length-prefixed so part contents never collide with the markers.
    out += kPart;
    out += std::to_string(part.size());
    out += "\n";
    out += part;
    out += "\n";
  }
  return out;
}

std::vector<std::string> split_composite(std::string_view payload) {
  if (payload.substr(0, kHeader.size()) != kHeader) {
    throw ExecError("not a composite payload");
  }
  std::size_t pos = payload.find('\n');
  if (pos == std::string_view::npos) {
    throw ExecError("malformed composite payload: missing header newline");
  }
  const std::optional<std::size_t> expected = support::parse_int<std::size_t>(
      support::trim(payload.substr(kHeader.size(), pos - kHeader.size())));
  if (!expected) {
    throw ExecError("malformed composite payload: bad part count");
  }
  ++pos;
  std::vector<std::string> parts;
  while (pos < payload.size()) {
    if (payload.substr(pos, kPart.size()) != kPart) {
      throw ExecError("malformed composite payload: expected part marker");
    }
    pos += kPart.size();
    const std::size_t nl = payload.find('\n', pos);
    if (nl == std::string_view::npos) {
      throw ExecError("malformed composite payload: truncated part header");
    }
    const std::optional<std::size_t> length =
        support::parse_int<std::size_t>(payload.substr(pos, nl - pos));
    if (!length) {
      throw ExecError("malformed composite payload: bad part length");
    }
    pos = nl + 1;
    if (*length > payload.size() - pos) {
      throw ExecError("malformed composite payload: truncated part body");
    }
    parts.emplace_back(payload.substr(pos, *length));
    pos += *length;
    if (pos < payload.size() && payload[pos] == '\n') ++pos;
  }
  if (parts.size() != *expected) {
    throw ExecError("malformed composite payload: expected " +
                    std::to_string(*expected) + " parts, found " +
                    std::to_string(parts.size()));
  }
  return parts;
}

}  // namespace herc::tools
