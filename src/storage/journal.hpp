// Append-only write-ahead journal (the durable-storage subsystem's log).
//
// The paper's design-history database is the permanent record of a design
// (§3.3); this layer makes it actually permanent.  Every history mutation
// is appended as one *frame* — a length-prefixed, checksummed record — so a
// commit costs O(record), not O(database).  A crash can only tear the final
// frame; recovery keeps the longest valid prefix and truncates the rest
// (`scan_journal`), so the history is always restored to a consistent
// prefix of what was recorded.
//
// On-disk layout:
//
//   header   "HERCWAL2" (8 bytes)  +  envelope around the epoch (u64 LE)
//   frame    length (u32 LE)  +  checksum (u32 LE)  +  payload bytes
//   frame    ...
//
// Each frame is a `support::seal` envelope, whose checksum covers the length
// and the payload, so a torn or bit-flipped tail never surfaces as a record;
// the header's epoch sits in one too.  The epoch ties a journal to the
// snapshot it extends: snapshot compaction bumps the epoch.  What a header
// means is the store reader's rule (`StoreReader`, store.hpp): a journal
// older than the snapshot (a crash between the two renames) is discarded as
// already compacted, one ahead of it is refused, and so is a header with a
// wrong magic or an epoch that fails its checksum.  A file shorter than its
// header never held a frame.
//
// Journals written before the epoch had a checksum begin "HERCWAL1" and the
// bare epoch (16 bytes); they are still read, with the epoch unchecked, and
// appended to, and the store's next checkpoint writes a "HERCWAL2" journal.
// `Journal` is the framing and sync policy over a `support::AppendFile`.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/envelope.hpp"
#include "support/file.hpp"

namespace herc::storage {

/// When appended frames are forced to stable storage.
enum class SyncPolicy {
  kNone,      ///< leave it to the OS (fastest; loses the page-cache tail)
  kInterval,  ///< fsync every `sync_interval` appends
  kCommit,    ///< fsync every append (classic WAL durability)
};

struct JournalOptions {
  SyncPolicy sync = SyncPolicy::kInterval;
  /// Appends per fsync under `SyncPolicy::kInterval`.
  std::uint64_t sync_interval = 64;
};

inline constexpr std::string_view kJournalMagic = "HERCWAL2";
/// magic + the envelope around the epoch
inline constexpr std::size_t kJournalHeaderBytes =
    kJournalMagic.size() + support::kEnvelopeHeaderBytes + 8;
/// The first format's header: its magic and the epoch, outside any checksum.
inline constexpr std::string_view kJournalMagicV1 = "HERCWAL1";
inline constexpr std::size_t kJournalV1HeaderBytes = kJournalMagicV1.size() + 8;
inline constexpr std::size_t kFrameHeaderBytes = support::kEnvelopeHeaderBytes;

/// The header a journal for `epoch` begins with.
[[nodiscard]] std::string journal_header(std::uint64_t epoch);

/// The length of the header `bytes` begin with: a "HERCWAL2" header's, or
/// else the first format's, the shortest there is.  Bytes short of it
/// never held a frame.
[[nodiscard]] std::size_t journal_header_bytes(std::string_view bytes);

/// Result of frame-level recovery over journal bytes.
struct ScanResult {
  /// False when the bytes are shorter than their header, the magic names
  /// no format or the epoch fails its checksum; there are then no records
  /// and no valid bytes.
  bool header_valid = false;
  std::uint64_t epoch = 0;
  /// Payloads of every complete, checksum-valid frame, in order.
  std::vector<std::string> records;
  /// Bytes covered by the header plus all valid frames — the offset to
  /// truncate to before appending again.
  std::uint64_t valid_bytes = 0;
  /// True when bytes after `valid_bytes` were discarded (torn final frame).
  bool torn = false;
};

/// Scans in-memory journal bytes.  Never throws on truncated or corrupt
/// input: scanning stops at the first incomplete or checksum-failing frame
/// and everything before it is the recovered prefix.
[[nodiscard]] ScanResult scan_journal(std::string_view bytes);

/// An open journal file, append side.  Not internally synchronized: callers
/// serialize appends exactly as they already serialize history mutations.
/// A failed write, flush or fsync sticks (`support::AppendFile`); closing
/// does not fsync.
class Journal {
 public:
  /// Replaces `path` with a fresh journal for `epoch` (its header alone,
  /// through `support::write_file_atomic`) and opens it.
  static Journal create(const std::string& path, std::uint64_t epoch,
                        JournalOptions options);

  /// Opens an existing journal for appending at `size` bytes, the valid
  /// prefix the caller scanned, cutting any torn tail.  The caller has
  /// judged its header (`StoreReader`, store.hpp): appending under another
  /// epoch would splice records into a journal that extends a different
  /// snapshot.
  static Journal open(const std::string& path, std::uint64_t size,
                      JournalOptions options) {
    return Journal(path, size, options);
  }

  /// Appends one frame and applies the sync policy.
  void append(std::string_view payload);

  /// Forces everything appended so far to stable storage.
  void sync();

  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] std::uint64_t records_appended() const { return appended_; }

 private:
  Journal(const std::string& path, std::uint64_t bytes,
          JournalOptions options);

  support::AppendFile file_;
  std::uint64_t bytes_ = 0;
  std::uint64_t appended_ = 0;
  std::uint64_t since_sync_ = 0;
  JournalOptions options_;
};

}  // namespace herc::storage
