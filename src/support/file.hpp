// The one file seam: whole-file reads, and every durable write in src/
// (journal, snapshot, schema, replica marker, index image, `session save`).
// Each write, flush, fsync, cut, rename and removal is checked, and a
// failure throws `HistoryError` naming the file and the system's reason.
// Nothing else in src/ syncs, renames or cuts a file (CI greps for it).
#pragma once

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "support/error.hpp"

namespace herc::support {

/// The bytes of the file at `path`, read in one pass into a buffer sized
/// from the file, or nullopt when it cannot be opened or read.  Callers
/// raise their own error, naming what they were reading.
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

/// Durably replaces the file at `path` with `pieces`, written in turn:
/// writes `path`.tmp, fsyncs it, renames it over `path` and fsyncs the
/// directory.  A failure before the rename leaves `path` as it was.
void write_file_atomic(const std::string& path,
                       std::initializer_list<std::string_view> pieces);

/// Durably removes the file at `path` (if it is there).
void remove_file(const std::string& path);

/// A file open for appending, buffered in user space: an `append` that
/// fits the buffer makes no system call; `sync` flushes and fsyncs.  A
/// failure sticks: every later `append` and `sync` throws it again, since
/// the kernel may have dropped the unsynced bytes and a later fsync would
/// vouch for data that is gone.  Closing never throws.
class AppendFile {
 public:
  /// Opens `path` (created when missing) to append after its first `size`
  /// bytes, cutting off anything beyond them (a torn tail).
  AppendFile(std::string path, std::uint64_t size);

  void append(std::string_view bytes);
  void sync();

 private:
  /// Unless `ok`, throws `what` with the system's reason, and keeps it.
  void check(bool ok, std::string_view what);

  struct Close {
    void operator()(std::FILE* file) const { std::fclose(file); }
  };
  std::unique_ptr<std::FILE, Close> file_;
  std::string path_;
  std::optional<HistoryError> failure_;
};

}  // namespace herc::support
