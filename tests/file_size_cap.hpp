// Write failures on demand, for tests of the durable-write seam.
//
// `cap_file_size` lowers the soft RLIMIT_FSIZE, so a write past the cap
// fails with EFBIG, and `lift_file_size_cap` raises it again, so a test
// can show that a failure sticks after its cause is gone.  Only ever call
// them inside a death-test child (`expect_verdict_zero`): the cap
// holds for every regular file the process writes, the child's captured
// output included, which is why the child reports by exit status alone.
#pragma once

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string>

#include "support/error.hpp"

namespace herc::testfile {

/// The message of the `HistoryError` that `call` throws, or "" if none.
template <typename Call>
std::string failure_of(Call&& call) {
  try {
    call();
  } catch (const support::HistoryError& e) {
    return e.what();
  }
  return "";
}

/// Caps the size of every file this process writes at `bytes`; SIGXFSZ is
/// ignored, so the write fails instead of killing the process.
inline void cap_file_size(std::uint64_t bytes) {
  std::signal(SIGXFSZ, SIG_IGN);
  rlimit limit{};
  ::getrlimit(RLIMIT_FSIZE, &limit);
  limit.rlim_cur = static_cast<rlim_t>(bytes);
  ::setrlimit(RLIMIT_FSIZE, &limit);
}

/// Raises the soft cap back to the hard limit.
inline void lift_file_size_cap() {
  rlimit limit{};
  ::getrlimit(RLIMIT_FSIZE, &limit);
  limit.rlim_cur = limit.rlim_max;
  ::setrlimit(RLIMIT_FSIZE, &limit);
}

/// Runs `verdict` in a freshly started death-test child (so no thread of
/// the parent is forked along) and expects it to return 0; a nonzero code
/// names the check that failed.  The child removes `dir` before it exits,
/// since it never reaches its fixture's destructor.
inline void expect_verdict_zero(const std::function<int()>& verdict,
                                const std::filesystem::path& dir) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        const int code = verdict();
        std::filesystem::remove_all(dir);
        std::_Exit(code);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace herc::testfile
