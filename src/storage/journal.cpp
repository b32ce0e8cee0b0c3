#include "storage/journal.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "support/error.hpp"
#include "support/hash.hpp"

namespace herc::storage {

using support::HistoryError;

namespace {

void put_u32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xff));
  out.push_back(static_cast<char>((v >> 8) & 0xff));
  out.push_back(static_cast<char>((v >> 16) & 0xff));
  out.push_back(static_cast<char>((v >> 24) & 0xff));
}

void put_u64(std::string& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v & 0xffffffffu));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t read_u32(std::string_view bytes, std::size_t at) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at])) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + 1]))
          << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + 2]))
          << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[at + 3]))
          << 24);
}

std::uint64_t read_u64(std::string_view bytes, std::size_t at) {
  return static_cast<std::uint64_t>(read_u32(bytes, at)) |
         (static_cast<std::uint64_t>(read_u32(bytes, at + 4)) << 32);
}

}  // namespace

std::uint32_t frame_checksum(std::string_view payload) {
  std::string length;
  put_u32(length, static_cast<std::uint32_t>(payload.size()));
  const std::uint64_t h =
      support::fnv1a_append(support::fnv1a(length), payload);
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

ScanResult scan_journal(std::string_view bytes) {
  ScanResult result;
  if (bytes.size() < kJournalHeaderBytes ||
      bytes.substr(0, kJournalMagic.size()) != kJournalMagic) {
    result.torn = !bytes.empty();
    return result;
  }
  result.header_valid = true;
  result.epoch = read_u64(bytes, kJournalMagic.size());
  std::size_t at = kJournalHeaderBytes;
  while (at + kFrameHeaderBytes <= bytes.size()) {
    const std::uint32_t length = read_u32(bytes, at);
    const std::uint32_t check = read_u32(bytes, at + 4);
    if (at + kFrameHeaderBytes + length > bytes.size()) break;
    const std::string_view payload =
        bytes.substr(at + kFrameHeaderBytes, length);
    if (frame_checksum(payload) != check) break;
    result.records.emplace_back(payload);
    at += kFrameHeaderBytes + length;
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
  put_u64(header, epoch);
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
  const std::uint64_t disk_epoch = read_u64(bytes, kJournalMagic.size());
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
  frame.reserve(kFrameHeaderBytes + payload.size());
  put_u32(frame, static_cast<std::uint32_t>(payload.size()));
  put_u32(frame, frame_checksum(payload));
  frame += payload;
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
