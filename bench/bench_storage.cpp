// Storage subsystem benchmark: journaled commit vs full-image save,
// checkpoint cost, and recovery latency.  Emits machine-readable results
// to BENCH_storage.json in the working directory.
//
// The headline claim: committing one mutation through the write-ahead
// journal is O(delta) — on a 10k-instance history it must be at least an
// order of magnitude cheaper than rewriting the full save() image, which
// is what persistence cost before the journal existed.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "history/history_db.hpp"
#include "schema/standard_schemas.hpp"
#include "storage/store.hpp"
#include "support/clock.hpp"
#include "support/text.hpp"

namespace {

namespace fs = std::filesystem;
using namespace herc;

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Imports `count` instances with small distinct payloads.
void populate(history::HistoryDb& db, const schema::TaskSchema& schema,
              std::size_t count, std::size_t tag) {
  const schema::EntityTypeId netlist = schema.require("EditedNetlist");
  for (std::size_t i = 0; i < count; ++i) {
    db.import_instance(netlist,
                       support::numbered(support::numbered("n", tag) + "_", i),
                       support::numbered("payload", i % 97), "bench");
  }
}

}  // namespace

int main() {
  const schema::TaskSchema schema = schema::make_fig1_schema();
  const std::string dir =
      (fs::temp_directory_path() / "herc_bench_storage").string();
  fs::remove_all(dir);

  constexpr std::size_t kBaseInstances = 10000;
  constexpr std::size_t kCommits = 2000;
  constexpr std::size_t kSaveIters = 20;

  double populate_ms = 0;
  double append_us_per_op = 0;
  double full_save_us_per_op = 0;
  double checkpoint_ms = 0;
  double recovery_journal_ms = 0;
  double recovery_snapshot_ms = 0;
  std::uint64_t bytes_journaled = 0;
  std::uint64_t records_journaled = 0;
  std::size_t snapshot_bytes = 0;

  {
    support::ManualClock clock(718000000000000LL, 1000);
    storage::StoreOptions options;
    options.journal.sync = storage::SyncPolicy::kNone;
    storage::DurableHistory store(schema, clock, dir, options);

    auto start = Clock::now();
    populate(store.db(), schema, kBaseInstances, 0);
    populate_ms = ms_since(start);

    // Journaled commit: one mutation appended to the WAL, O(delta).
    start = Clock::now();
    populate(store.db(), schema, kCommits, 1);
    append_us_per_op = ms_since(start) * 1000.0 / kCommits;

    // The alternative a journal replaces: serialize the full image and
    // rewrite it, per commit.
    start = Clock::now();
    for (std::size_t i = 0; i < kSaveIters; ++i) {
      const std::string image = store.db().save();
      std::ofstream out((fs::path(dir) / "naive.img").string(),
                        std::ios::binary | std::ios::trunc);
      out.write(image.data(), static_cast<std::streamsize>(image.size()));
      snapshot_bytes = image.size();
    }
    full_save_us_per_op = ms_since(start) * 1000.0 / kSaveIters;
    fs::remove(fs::path(dir) / "naive.img");

    bytes_journaled = store.bytes_journaled();
    records_journaled = store.records_journaled();
  }

  // Journal-only recovery: replay every record from the WAL.
  {
    support::ManualClock clock(0, 1);
    const auto start = Clock::now();
    storage::DurableHistory store(schema, clock, dir);
    recovery_journal_ms = ms_since(start);
    if (store.db().size() != kBaseInstances + kCommits) {
      std::fprintf(stderr, "journal recovery size mismatch: %zu\n",
                   store.db().size());
      return 1;
    }

    const auto cp_start = Clock::now();
    store.checkpoint();
    checkpoint_ms = ms_since(cp_start);
  }

  // Snapshot recovery: load the compacted image, empty journal tail.
  {
    support::ManualClock clock(0, 1);
    const auto start = Clock::now();
    storage::DurableHistory store(schema, clock, dir);
    recovery_snapshot_ms = ms_since(start);
    if (store.db().size() != kBaseInstances + kCommits) {
      std::fprintf(stderr, "snapshot recovery size mismatch: %zu\n",
                   store.db().size());
      return 1;
    }
  }
  fs::remove_all(dir);

  const double speedup = full_save_us_per_op / append_us_per_op;

  std::ofstream json("BENCH_storage.json", std::ios::trunc);
  json << "{\n"
       << "  \"instances\": " << kBaseInstances + kCommits << ",\n"
       << "  \"journaled_commits\": " << kCommits << ",\n"
       << "  \"populate_ms\": " << populate_ms << ",\n"
       << "  \"journal_append_us_per_op\": " << append_us_per_op << ",\n"
       << "  \"full_save_us_per_op\": " << full_save_us_per_op << ",\n"
       << "  \"journal_vs_full_save_speedup\": " << speedup << ",\n"
       << "  \"records_journaled\": " << records_journaled << ",\n"
       << "  \"bytes_journaled\": " << bytes_journaled << ",\n"
       << "  \"snapshot_bytes\": " << snapshot_bytes << ",\n"
       << "  \"checkpoint_ms\": " << checkpoint_ms << ",\n"
       << "  \"recovery_journal_ms\": " << recovery_journal_ms << ",\n"
       << "  \"recovery_snapshot_ms\": " << recovery_snapshot_ms << "\n"
       << "}\n";
  json.close();

  std::printf("bench_storage: %zu instances\n", kBaseInstances + kCommits);
  std::printf("  journal append      %.2f us/op\n", append_us_per_op);
  std::printf("  full save()         %.2f us/op\n", full_save_us_per_op);
  std::printf("  speedup             %.1fx\n", speedup);
  std::printf("  checkpoint          %.2f ms\n", checkpoint_ms);
  std::printf("  recovery (journal)  %.2f ms\n", recovery_journal_ms);
  std::printf("  recovery (snapshot) %.2f ms\n", recovery_snapshot_ms);
  std::printf("  -> BENCH_storage.json\n");

  if (speedup < 10.0) {
    std::fprintf(stderr,
                 "FAIL: journaled commit only %.1fx cheaper than full save "
                 "(need >= 10x)\n",
                 speedup);
    return 1;
  }
  return 0;
}
