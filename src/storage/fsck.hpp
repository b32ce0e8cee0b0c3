// History integrity auditor (`herc fsck`).
//
// A long-lived design-history store is the source of truth for every
// consistency query the paper builds (§3.3, §4.2), so it needs an offline
// audit: `fsck_store` cross-checks the on-disk snapshot and journal
// against each other and against the blob store's content hashes without
// going through `HistoryDb` (whose replay throws at the first defect and
// hides the rest).  It reads the snapshot and journal through the store's
// own reader (`StoreReader`, store.hpp), every line with the store's own
// decoder (`history::decode`), folds the run log by replay's rules
// (`history::fold`) and finds partial products by recovery's rule
// (`history::partial_products`), so whatever recovery refuses or acts on
// is a finding here.  It classifies every defect by severity:
//
//   kClean      (exit 0)  nothing to report, or informational *notes*:
//                         clean-severity findings ("replica-store" on a
//                         read replica, "resumable-run", "leader-open-run")
//                         that render — and carry severity "note" in the
//                         --json output — but never raise the exit code
//   kWarning    (exit 1)  survivable states recovery handles or tolerates:
//                         orphaned blobs, interrupted runs, unquarantined
//                         partial products, a discarded pre-checkpoint
//                         journal, a torn journal tail (or a journal
//                         shorter than its header), and secondary-index
//                         defects ("index-unreadable", "stale-index-epoch",
//                         "missing-posting", "orphan-index",
//                         "index-adjacency-mismatch" — the index is
//                         reconstructible, so recovery rebuilds rather than
//                         trusts it)
//   kCorruption (exit 2)  defects that make recovery refuse the store or
//                         silently lose data: unparseable records,
//                         dangling derivation references, missing blobs,
//                         blob hash mismatches, out-of-order instance ids,
//                         a journal header with a wrong magic or an epoch
//                         ahead of the snapshot, and a repair refused
//                         ("repair-refused") because its image would not
//                         open or the journal holds frames the audit could
//                         not read
//
// With `repair` set, the repairable defects are fixed in place: corrupt
// instances are tombstoned (quarantined, payload dropped, derivation
// cleared — their id slot is preserved so later references stay valid),
// partial products are quarantined, orphan blobs are swept, the cleaned
// image is checkpointed under the next epoch with a fresh journal, and the
// secondary indexes are rebuilt from the repaired image at that epoch.
// The image is first loaded over the store's schema as recovery would
// load it; when that fails (or the schema does not parse), nothing is
// written.  Nor is anything written when the store reader could not read
// the journal's frames (a bad snapshot header, a journal magic it cannot
// read, a journal epoch ahead of the snapshot's): the repair checkpoint
// would replace the journal, and those frames with it.
// Repair refuses replica stores ("replica-no-repair"): a repair checkpoint
// would bump the epoch out from under the replication stream.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/severity.hpp"

namespace herc::storage {

/// fsck and `herc lint` share one severity scale and exit-code convention
/// (0 clean / 1 warning / 2 error-or-corruption); `kCorruption` is lint's
/// `kError` under its traditional name.
using FsckSeverity = support::Severity;

/// One defect.  `code` is a stable kebab-case identifier (e.g.
/// "dangling-reference", "blob-hash-mismatch", "orphan-blob",
/// "interrupted-run") scripts and tests can match on.
struct FsckFinding {
  FsckSeverity severity = FsckSeverity::kWarning;
  std::string code;
  std::string detail;
};

struct FsckStats {
  std::uint64_t epoch = 0;
  std::size_t snapshot_records = 0;
  std::size_t journal_records = 0;
  std::size_t instances = 0;
  std::size_t blobs = 0;
  std::size_t runs = 0;
  std::size_t open_runs = 0;
};

struct FsckOptions {
  /// Fix repairable defects and checkpoint the cleaned image under the
  /// next epoch (the original snapshot is replaced atomically).
  bool repair = false;
};

struct FsckReport {
  std::string dir;
  std::vector<FsckFinding> findings;
  /// Human-readable repair actions taken (empty without `repair`).
  std::vector<std::string> repairs;
  FsckStats stats;

  /// Worst severity across findings.
  [[nodiscard]] FsckSeverity severity() const;
  /// CLI exit code: 0 clean, 1 warnings only, 2 corruption.
  [[nodiscard]] int exit_code() const { return static_cast<int>(severity()); }
  /// True when some finding carries `code`.
  [[nodiscard]] bool has(std::string_view code) const;
  /// Multi-line human rendering (stats, findings, repairs, verdict).
  [[nodiscard]] std::string render() const;
  /// One-object JSON rendering: {"dir", "stats", "findings", "repairs",
  /// "verdict", "exit_code"}.  Every finding carries its severity label
  /// ("note" / "warning" / "corruption"); clean-severity notes such as
  /// "replica-store" are included but do not affect "exit_code".
  [[nodiscard]] std::string render_json() const;
};

/// Audits the store in `dir`.  Tolerates any corruption inside the store
/// (defects become findings, never exceptions); throws `HistoryError` only
/// when `dir` does not hold a store at all or a file cannot be read.
[[nodiscard]] FsckReport fsck_store(const std::string& dir,
                                    const FsckOptions& options = {});

}  // namespace herc::storage
