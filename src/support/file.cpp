#include "support/file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace herc::support {

namespace {

/// `what` about `path`, with the reason `errno` holds.
HistoryError file_error(std::string_view what, const std::string& path) {
  return HistoryError(std::string(what) + " '" + path +
                      "': " + std::strerror(errno));
}

/// Fsyncs the directory holding `path`, so that a rename or removal in it
/// survives a power cut.
void sync_dir(const std::string& path) {
  const std::string parent = std::filesystem::path(path).parent_path();
  // Not `dir = "."` on a copy: GCC 12 flags that assignment (-Wrestrict).
  const std::string dir = parent.empty() ? std::string(".") : parent;
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) throw file_error("cannot open directory", dir);
  const bool synced = ::fsync(fd) == 0;
  const int error = errno;
  ::close(fd);
  errno = error;
  if (!synced) throw file_error("cannot fsync directory", dir);
}

}  // namespace

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

void write_file_atomic(const std::string& path,
                       std::initializer_list<std::string_view> pieces) {
  const std::string tmp = path + ".tmp";
  {
    AppendFile out(tmp, 0);
    for (const std::string_view piece : pieces) out.append(piece);
    out.sync();
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw file_error("cannot rename '" + tmp + "' over", path);
  }
  sync_dir(path);
}

void remove_file(const std::string& path) {
  if (std::remove(path.c_str()) != 0) {
    if (errno == ENOENT) return;
    throw file_error("cannot remove", path);
  }
  sync_dir(path);
}

AppendFile::AppendFile(std::string path, std::uint64_t size)
    : file_(std::fopen(path.c_str(), "ab")), path_(std::move(path)) {
  if (file_ == nullptr) throw file_error("cannot open", path_);
  struct stat st {};
  const int fd = ::fileno(file_.get());
  if (::fstat(fd, &st) != 0) throw file_error("cannot stat", path_);
  if (static_cast<std::uint64_t>(st.st_size) > size &&
      ::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    throw file_error("cannot cut the torn tail of", path_);
  }
}

void AppendFile::append(std::string_view bytes) {
  if (failure_) throw *failure_;
  if (bytes.empty()) return;
  check(std::fwrite(bytes.data(), 1, bytes.size(), file_.get()) ==
            bytes.size(),
        "cannot write");
}

void AppendFile::sync() {
  if (failure_) throw *failure_;
  check(std::fflush(file_.get()) == 0, "cannot flush");
  check(::fsync(::fileno(file_.get())) == 0, "cannot fsync");
}

void AppendFile::check(bool ok, std::string_view what) {
  if (ok) return;
  failure_ = file_error(what, path_);
  throw *failure_;
}

}  // namespace herc::support
