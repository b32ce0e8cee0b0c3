#include "serve.hpp"

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "schema/schema_io.hpp"

namespace perfbench {

namespace fs = std::filesystem;

ServerProcess::ServerProcess(const std::string& herc_binary,
                             const std::string& dir) {
  int fds[2] = {-1, -1};
  if (::pipe(fds) != 0) throw std::runtime_error("serve: pipe failed");
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw std::runtime_error("serve: fork failed");
  }
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(fds[1], STDOUT_FILENO);
    ::dup2(fds[1], STDERR_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execl(herc_binary.c_str(), herc_binary.c_str(), "serve", dir.c_str(),
            "--listen", "127.0.0.1:0", static_cast<char*>(nullptr));
    ::_exit(127);
  }
  ::close(fds[1]);
  out_fd_ = fds[0];

  // `serve` flushes its stdout right after the server starts accepting,
  // so once the address line is visible connections are served.
  std::string address;
  char chunk[512];
  while (address.empty()) {
    const ssize_t n = ::read(out_fd_, chunk, sizeof chunk);
    if (n <= 0) break;
    output_.append(chunk, static_cast<std::size_t>(n));
    const std::size_t pos = output_.find("listening on ");
    if (pos == std::string::npos) continue;
    const std::size_t eol = output_.find('\n', pos);
    if (eol == std::string::npos) continue;
    address = output_.substr(pos + 13, eol - pos - 13);
  }
  if (address.empty()) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
    ::close(out_fd_);
    throw std::runtime_error("'" + herc_binary +
                             " serve' reported no address:\n" + output_);
  }
  endpoint_ = herc::server::Endpoint::parse(address);
  drain_ = std::thread([this] {
    char sink[4096];
    ssize_t n = 0;
    while ((n = ::read(out_fd_, sink, sizeof sink)) > 0) {
      output_.append(sink, static_cast<std::size_t>(n));
    }
  });
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
  if (drain_.joinable()) drain_.join();
  if (out_fd_ >= 0) ::close(out_fd_);
}

long ServerProcess::peak_rss_kib() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      long kib = 0;
      status >> kib;
      return kib;
    }
  }
  return 0;
}

int ServerProcess::stop() {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  if (drain_.joinable()) drain_.join();
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

namespace {

void sync_file(const fs::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("cannot open " + path.string());
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) throw std::runtime_error("cannot fsync " + path.string());
}

}  // namespace

void clone_store(const std::string& from, const std::string& to) {
  fs::create_directories(to);
  for (const fs::directory_entry& entry : fs::directory_iterator(from)) {
    if (!entry.is_regular_file()) continue;
    const fs::path target = fs::path(to) / entry.path().filename();
    if (entry.path().filename() == "journal.wal") {
      fs::copy_file(entry.path(), target);
      sync_file(target);
    } else {
      fs::create_hard_link(entry.path(), target);
    }
  }
}

herc::schema::TaskSchema store_schema(const std::string& dir) {
  std::ifstream in(dir + "/schema.herc");
  if (!in) throw std::runtime_error("no schema.herc in " + dir);
  std::ostringstream text;
  text << in.rdbuf();
  return herc::schema::parse_schema(text.str());
}

void sync_dir(const std::string& dir) {
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) sync_file(entry.path());
  }
}

}  // namespace perfbench
