// Output checks run on the store a gracefully stopped server left behind.
#pragma once

#include <string>
#include <vector>

#include "core/session.hpp"
#include "load.hpp"

namespace perfbench {

struct CheckReport {
  std::vector<std::string> failures;
  std::size_t imports = 0;
  std::size_t pages = 0;
  std::size_t runs = 0;
  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// `fsck_store` on `dir`; appends a failure unless it exits 0.
void check_fsck(const std::string& dir, CheckReport& report);

/// With `session` opened on the stopped store: every acknowledged import
/// is present exactly once, each sampled browse page is the same through
/// the indexes as through `run_page` with no index, and every run closed
/// complete with its Performance goal recorded.
void check_session(herc::core::DesignSession& session, const LoadResult& load,
                   CheckReport& report);

}  // namespace perfbench
