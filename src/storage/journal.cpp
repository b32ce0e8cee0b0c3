#include "storage/journal.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "support/envelope.hpp"
#include "support/error.hpp"

namespace herc::storage {

using support::HistoryError;

ScanResult scan_journal(std::string_view bytes) {
  ScanResult result;
  if (bytes.size() < kJournalHeaderBytes ||
      bytes.substr(0, kJournalMagic.size()) != kJournalMagic) {
    result.torn = !bytes.empty();
    return result;
  }
  result.header_valid = true;
  result.epoch = support::get_le64(bytes, kJournalMagic.size());
  std::size_t at = kJournalHeaderBytes;
  while (const std::optional<std::string_view> payload =
             support::unseal(bytes.substr(at))) {
    result.records.emplace_back(*payload);
    at += kFrameHeaderBytes + payload->size();
  }
  result.valid_bytes = at;
  result.torn = at != bytes.size();
  return result;
}

Journal::Journal(const std::string& path, std::uint64_t epoch,
                 std::uint64_t bytes, JournalOptions options)
    : file_(path, bytes), epoch_(epoch), bytes_(bytes), options_(options) {}

Journal Journal::create(const std::string& path, std::uint64_t epoch,
                        JournalOptions options) {
  std::string header(kJournalMagic);
  support::put_le64(header, epoch);
  support::write_file_atomic(path, {header});
  return Journal(path, epoch, header.size(), options);
}

Journal Journal::open(const std::string& path, std::uint64_t epoch,
                      std::uint64_t size, JournalOptions options) {
  // Appending under the wrong epoch would splice records into a journal
  // that extends a different snapshot, so verify the on-disk header first.
  std::FILE* head = std::fopen(path.c_str(), "rb");
  if (head == nullptr) {
    throw HistoryError("journal: cannot open '" + path +
                       "': " + std::strerror(errno));
  }
  char buffer[kJournalHeaderBytes];
  const std::size_t got = std::fread(buffer, 1, sizeof buffer, head);
  std::fclose(head);
  const std::string_view bytes(buffer, got);
  if (got < kJournalHeaderBytes ||
      bytes.substr(0, kJournalMagic.size()) != kJournalMagic) {
    throw HistoryError("journal: '" + path +
                       "' has no valid HERCWAL1 header");
  }
  const std::uint64_t disk_epoch =
      support::get_le64(bytes, kJournalMagic.size());
  if (disk_epoch != epoch) {
    throw HistoryError(
        "journal: '" + path + "' is at epoch " +
        std::to_string(disk_epoch) + " but the snapshot expects epoch " +
        std::to_string(epoch) + "; it extends a different snapshot");
  }
  return Journal(path, epoch, size, options);
}

void Journal::append(std::string_view payload) {
  std::string frame;
  support::seal(frame, payload);
  file_.append(frame);
  bytes_ += frame.size();
  ++appended_;
  switch (options_.sync) {
    case SyncPolicy::kNone:
      break;
    case SyncPolicy::kCommit:
      sync();
      break;
    case SyncPolicy::kInterval:
      if (++since_sync_ >= options_.sync_interval) sync();
      break;
  }
}

void Journal::sync() {
  file_.sync();
  since_sync_ = 0;
}

}  // namespace herc::storage
