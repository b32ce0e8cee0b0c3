// The server under test: the real `herc serve` binary as a child process,
// and the store copies it runs on.
#pragma once

#include <string>
#include <thread>

#include "schema/task_schema.hpp"
#include "server/socket.hpp"

namespace perfbench {

/// `herc serve <dir> --listen 127.0.0.1:0` — the production configuration
/// (a leader with its journal shipper attached).  The child dies with the
/// benchmark if the benchmark dies first.
class ServerProcess {
 public:
  /// Starts the child and waits until it reports its listening address.
  /// Throws `std::runtime_error` when it exits or never reports one.
  ServerProcess(const std::string& herc_binary, const std::string& dir);
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] const herc::server::Endpoint& endpoint() const {
    return endpoint_;
  }
  /// Peak resident set so far (`VmHWM`), in KiB.
  [[nodiscard]] long peak_rss_kib() const;
  /// Graceful stop (SIGTERM); returns the child's exit status, or -1 when
  /// it did not exit normally.
  int stop();
  /// Everything the child printed.
  [[nodiscard]] const std::string& output() const { return output_; }

 private:
  int pid_ = -1;
  int out_fd_ = -1;
  herc::server::Endpoint endpoint_;
  std::string output_;
  std::thread drain_;
};

/// Copies the store in `from` to the new directory `to`: files the server
/// only ever replaces by rename are hard-linked, the journal (appended in
/// place) is copied and synced.
void clone_store(const std::string& from, const std::string& to);

/// The task schema recorded in the store in `dir`.
[[nodiscard]] herc::schema::TaskSchema store_schema(const std::string& dir);

/// fsyncs every regular file in `dir`, so no writeback is pending when a
/// timed section starts.
void sync_dir(const std::string& dir);

}  // namespace perfbench
