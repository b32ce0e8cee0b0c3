// Crash-resume property: killing a journaled 20-task run at EVERY byte
// offset of the journal leaves a store that (a) recovers without error,
// (b) resumes (or re-runs) to a complete flow, and (c) ends with exactly
// the uninterrupted run's active history — no task record lost, none
// duplicated.
//
// Structure (mirrors storage_property_test):
//   1. A random 20-task DAG is run once against a fresh store; the journal
//      bytes and the reference active-history signature are captured (the
//      imports live in the snapshot, so the journal holds only run-era
//      frames: run intents and products).
//   2. For every byte offset t, a trial store is built from the snapshot
//      plus the t-byte journal prefix and recovered — partial products are
//      quarantined.  If the run-begin frame survived, the run is resumed;
//      otherwise the flow is re-run with memoization.  Either way the
//      final active signature must equal the reference exactly (equality
//      of the sorted multiset rules out both duplicates and losses).
//   3. Before each trial store is opened, fsck reports no corruption and
//      names as unquarantined partials exactly the instances the open
//      then quarantines.  Sampled offsets also fsck the finished store:
//      clean.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exec/executor.hpp"
#include "fault_test_util.hpp"
#include "property_seed.hpp"
#include "storage/fsck.hpp"
#include "storage/store.hpp"
#include "support/text.hpp"

namespace herc::exec {
namespace {

namespace fs = std::filesystem;
using faulttest::World;
using graph::TaskGraph;
using storage::DurableHistory;
using storage::StoreOptions;
using storage::SyncPolicy;

constexpr std::size_t kTasks = 20;
const std::uint64_t kSeed = testprop::base_seed(0xD1CEu);

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::vector<std::string> active_signature(const history::HistoryDb& db) {
  std::vector<std::string> sig;
  for (const std::string& line : faulttest::history_signature(db)) {
    if (line.find("|status=0|") != std::string::npos) sig.push_back(line);
  }
  return sig;
}

TEST(ResumePropertyTest, EveryByteCrashPointResumesToTheSameHistory) {
  SCOPED_TRACE(testprop::seed_note(kSeed));
  World w;
  const TaskGraph flow = faulttest::make_random_dag(w, kTasks, kSeed);
  const std::string dir =
      (fs::temp_directory_path() / "herc_resume_property").string();
  fs::remove_all(dir);

  StoreOptions options;
  options.journal.sync = SyncPolicy::kNone;

  std::vector<std::string> reference;
  {
    DurableHistory store(w.schema, w.clock, dir, options);
    store.adopt(std::move(w.db));  // imports -> snapshot; journal = run era
    Executor exec(store.db(), w.tools);
    const ExecResult result = exec.run(flow);
    ASSERT_EQ(result.tasks_run, kTasks);
    ASSERT_EQ(result.tasks_failed, 0u);
    reference = active_signature(store.db());
  }
  const std::string journal = slurp((fs::path(dir) / "journal.wal").string());
  ASSERT_GT(journal.size(), storage::kJournalHeaderBytes);

  const std::string trial = dir + "_trial";
  for (std::size_t t = 0; t <= journal.size(); ++t) {
    fs::remove_all(trial);
    fs::create_directories(trial);
    fs::copy_file(fs::path(dir) / "schema.herc",
                  fs::path(trial) / "schema.herc");
    fs::copy_file(fs::path(dir) / "snapshot.herc",
                  fs::path(trial) / "snapshot.herc");
    {
      std::ofstream out((fs::path(trial) / "journal.wal").string(),
                        std::ios::binary);
      out.write(journal.data(), static_cast<std::streamsize>(t));
    }

    // The auditor judges the crash as recovery will: no corruption, and
    // its unquarantined partials are exactly what the open quarantines
    // (the uninterrupted run quarantined nothing).
    const storage::FsckReport audit = storage::fsck_store(trial);
    ASSERT_LT(audit.exit_code(), 2) << "offset " << t << "\n"
                                    << audit.render();
    std::set<std::string> named;
    for (const storage::FsckFinding& finding : audit.findings) {
      if (finding.code != "unquarantined-partial") continue;
      named.insert(support::split_ws(finding.detail).at(1));
    }

    support::ManualClock clock(1u << 20, 1);
    DurableHistory store(w.schema, clock, trial, options);
    std::set<std::string> quarantined;
    for (const data::InstanceId id : store.db().all()) {
      if (store.db().instance(id).status ==
          history::InstanceStatus::kQuarantined) {
        quarantined.insert(support::numbered("i", id.value()));
      }
    }
    ASSERT_EQ(quarantined, named) << "offset " << t << "\n" << audit.render();
    Executor exec(store.db(), w.tools);
    ExecResult result;
    const auto open = store.db().open_runs();
    if (!open.empty()) {
      ASSERT_EQ(open.size(), 1u) << "offset " << t;
      result = exec.resume(open.front()->id);
    } else {
      // The crash predates the run-begin frame (or ate the journal header
      // entirely): nothing to resume, so the flow runs afresh — with
      // memoization, so any surviving products are still not duplicated.
      ExecOptions redo;
      redo.reuse_existing = true;
      result = exec.run(flow, redo);
    }
    ASSERT_EQ(result.tasks_failed, 0u) << "offset " << t;
    ASSERT_EQ(result.tasks_skipped, 0u) << "offset " << t;
    ASSERT_EQ(result.tasks_run + result.tasks_reused, kTasks)
        << "offset " << t;
    ASSERT_EQ(active_signature(store.db()), reference) << "offset " << t;
    ASSERT_TRUE(store.db().open_runs().empty()) << "offset " << t;

    // Sampled offsets: the healed store must audit clean on disk.
    if (t % 509 == 0 || t == journal.size()) {
      store.sync();
      const storage::FsckReport report = storage::fsck_store(trial);
      ASSERT_EQ(report.exit_code(), 0)
          << "offset " << t << "\n" << report.render();
    }
  }
  fs::remove_all(trial);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace herc::exec
