#include "support/file.hpp"

#include <fstream>

namespace herc::support {

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return std::nullopt;
  const std::streamoff size = in.tellg();
  if (size < 0 || !in.seekg(0)) return std::nullopt;
  std::string bytes(static_cast<std::size_t>(size), '\0');
  in.read(bytes.data(), size);
  if (in.bad()) return std::nullopt;
  // A file that shrank since the size was taken reads short: keep what
  // was there.
  bytes.resize(static_cast<std::size_t>(in.gcount()));
  return bytes;
}

}  // namespace herc::support
