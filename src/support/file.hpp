// Whole-file reads for the store's text formats.
#pragma once

#include <optional>
#include <string>

namespace herc::support {

/// The bytes of the file at `path`, read in one pass into a buffer sized
/// from the file, or nullopt when it cannot be opened or read.  Callers
/// raise their own error, naming what they were reading.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

}  // namespace herc::support
