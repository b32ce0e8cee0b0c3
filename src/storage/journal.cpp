#include "storage/journal.hpp"

#include <optional>

#include "support/envelope.hpp"

namespace herc::storage {

std::string journal_header(std::uint64_t epoch) {
  std::string stamp;
  support::put_le64(stamp, epoch);
  std::string header(kJournalMagic);
  support::seal(header, stamp);
  return header;
}

std::size_t journal_header_bytes(std::string_view bytes) {
  return bytes.starts_with(kJournalMagic) ? kJournalHeaderBytes
                                          : kJournalV1HeaderBytes;
}

namespace {

/// The epoch of the header `bytes` begin with, or nullopt when there is
/// none this binary can trust.
std::optional<std::uint64_t> header_epoch(std::string_view bytes) {
  if (bytes.starts_with(kJournalMagic)) {
    const std::optional<std::string_view> stamp =
        support::unseal(bytes.substr(kJournalMagic.size()));
    if (!stamp || stamp->size() != 8) return std::nullopt;
    return support::get_le64(*stamp, 0);
  }
  if (bytes.size() >= kJournalV1HeaderBytes &&
      bytes.starts_with(kJournalMagicV1)) {
    return support::get_le64(bytes, kJournalMagicV1.size());
  }
  return std::nullopt;
}

}  // namespace

ScanResult scan_journal(std::string_view bytes) {
  ScanResult result;
  const std::optional<std::uint64_t> epoch = header_epoch(bytes);
  if (!epoch) {
    result.torn = !bytes.empty();
    return result;
  }
  result.header_valid = true;
  result.epoch = *epoch;
  std::size_t at = journal_header_bytes(bytes);
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
  const std::string header = journal_header(epoch);
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
