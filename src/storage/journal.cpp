#include "storage/journal.hpp"

#include "support/envelope.hpp"

namespace herc::storage {

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

Journal::Journal(const std::string& path, std::uint64_t bytes,
                 JournalOptions options)
    : file_(path, bytes), bytes_(bytes), options_(options) {}

Journal Journal::create(const std::string& path, std::uint64_t epoch,
                        JournalOptions options) {
  std::string header(kJournalMagic);
  support::put_le64(header, epoch);
  support::write_file_atomic(path, {header});
  return Journal(path, header.size(), options);
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
