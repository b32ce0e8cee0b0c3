// The one file seam: every read in src/ (whole files, or front to back
// through one bounded window) and every durable write (journal, snapshot,
// schema, replica marker, index image, `session save`).  Each read, write,
// flush, fsync, cut, rename and removal is checked, and a failure throws
// `HistoryError` naming the file and the system's reason.  Nothing else in
// src/ opens, syncs, renames or cuts a file (CI greps for it).
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

/// Reads a file front to back through one window of `kWindowBytes`, so a
/// file of any size is never resident whole: the window grows only to hold
/// a line longer than it.  A view handed out stays valid until the next
/// call.  A failed open or read throws `HistoryError` naming the file.
class FileReader {
 public:
  static constexpr std::size_t kWindowBytes = std::size_t{1} << 20;

  explicit FileReader(std::string path);
  ~FileReader();
  FileReader(const FileReader&) = delete;
  FileReader& operator=(const FileReader&) = delete;

  /// The next `n` bytes as they are, or fewer where the file ends first.
  [[nodiscard]] std::string_view read(std::size_t n);
  /// The next line with its '\n' (the last line may lack one), or nullopt
  /// at the end of the file: the lines concatenate to the file's bytes.
  [[nodiscard]] std::optional<std::string_view> line();

 private:
  /// Moves the unread bytes to the window's front, doubling the window
  /// when they fill it, and reads more after them; false at the end of
  /// the file.
  bool fill();

  std::string path_;
  int fd_ = -1;
  std::unique_ptr<char[]> window_;
  std::size_t capacity_ = kWindowBytes;
  /// The unread bytes are `window_[at_, end_)`.
  std::size_t at_ = 0;
  std::size_t end_ = 0;
};

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
