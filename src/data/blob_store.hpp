// Content-addressed design-data storage.
//
// The paper (footnote 5) observes that many history instances — including
// different versions of the same design — may share the *physical* data,
// e.g. several meta-data records pointing at one RCS file.  The blob store
// reproduces that: payloads are stored once, keyed by content hash, and any
// number of instances reference the same key.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace herc::data {

/// A content key: 16 hex digits of the payload's `support::fnv1a` hash,
/// whose offset basis is not FNV-1a's and must never change (see hash.hpp).
using BlobKey = std::string;

/// Deduplicating payload store.
class BlobStore {
 public:
  /// Stores `payload` (no-op when already present) and returns its key.
  BlobKey put(std::string_view payload);

  /// The content key `payload` would get, without storing anything.
  [[nodiscard]] static BlobKey key_for(std::string_view payload);

  /// Restores a persisted record: recomputes `payload`'s content hash,
  /// throws `HistoryError` when it does not match `key` (a corrupt or
  /// tampered file), and stores the payload otherwise.  A corrupt payload
  /// is never admitted to the store.
  void restore(const BlobKey& key, std::string_view payload);

  [[nodiscard]] bool contains(const BlobKey& key) const;

  /// Payload for `key`; throws `HistoryError` when absent.
  [[nodiscard]] const std::string& get(const BlobKey& key) const;

  /// Number of distinct payloads.
  [[nodiscard]] std::size_t size() const { return blobs_.size(); }

  /// Bytes actually stored (after deduplication).
  [[nodiscard]] std::uint64_t bytes_stored() const { return bytes_stored_; }

  /// Bytes that would be stored without sharing (every `put` counted).
  [[nodiscard]] std::uint64_t bytes_logical() const { return bytes_logical_; }

  /// All keys, in insertion order (for persistence).
  [[nodiscard]] const std::vector<BlobKey>& keys() const { return order_; }

  /// One save()-format record line for `key` (no trailing newline).
  [[nodiscard]] std::string record_line(const BlobKey& key) const;

  /// Serializes to record lines / restores from them.
  [[nodiscard]] std::string save() const;
  [[nodiscard]] static BlobStore load(std::string_view text);

 private:
  std::unordered_map<BlobKey, std::string> blobs_;
  std::vector<BlobKey> order_;
  std::uint64_t bytes_stored_ = 0;
  std::uint64_t bytes_logical_ = 0;
};

}  // namespace herc::data
