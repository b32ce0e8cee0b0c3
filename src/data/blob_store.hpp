// Content-addressed design-data storage.
//
// The paper (footnote 5) observes that many history instances — including
// different versions of the same design — may share the *physical* data,
// e.g. several meta-data records pointing at one RCS file.  The blob store
// reproduces that: payloads are stored once, keyed by content hash, and any
// number of instances reference the same key.  The store holds no file
// format: the history database writes each payload as a `blob` record
// (history/record_codec.hpp) and hands records read back to `restore`,
// which re-checks the content hash.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "support/hash.hpp"
#include "support/ids.hpp"

namespace herc::data {

/// A content key: 16 hex digits of the payload's `support::fnv1a` hash,
/// whose offset basis is not FNV-1a's and must never change (see hash.hpp).
using BlobKey = std::string;

struct BlobTag {};
/// What an instance holds of its payload: the payload's first-seen ordinal
/// in the `BlobStore` that keeps it.  Four bytes, where a `BlobKey` is a
/// 32-byte string with its text on the heap; the key text lives only in
/// the store and in the files it writes.
using BlobRef = support::Id<BlobTag>;

/// Deduplicating payload store.
class BlobStore {
 public:
  /// Stores `payload` (no-op when already present) and returns its ref.
  /// Hashes the payload once.
  BlobRef put(std::string_view payload);

  /// The content key `payload` would get, without storing anything.
  [[nodiscard]] static BlobKey key_for(std::string_view payload);

  /// Restores a persisted record: recomputes `payload`'s content hash,
  /// throws `HistoryError` when it does not match `key` (a corrupt or
  /// tampered file), and stores the payload otherwise.  A corrupt payload
  /// is never admitted to the store.
  void restore(const BlobKey& key, std::string_view payload);

  [[nodiscard]] bool contains(const BlobKey& key) const;
  [[nodiscard]] bool contains(BlobRef ref) const {
    return ref.valid() && ref.index() < keys_.size();
  }

  /// The ref of the payload stored under `key`, or nullopt.
  [[nodiscard]] std::optional<BlobRef> find(std::string_view key) const;

  /// Payload for `key` or `ref`; throws `HistoryError` when absent.
  [[nodiscard]] const std::string& get(const BlobKey& key) const;
  [[nodiscard]] const std::string& get(BlobRef ref) const;

  /// The content key of `ref`'s payload; throws `HistoryError` when absent.
  [[nodiscard]] const BlobKey& key(BlobRef ref) const;

  /// Number of distinct payloads.
  [[nodiscard]] std::size_t size() const { return keys_.size(); }

  /// Bytes actually stored (after deduplication).
  [[nodiscard]] std::uint64_t bytes_stored() const { return bytes_stored_; }

  /// Bytes that would be stored without sharing (every `put` counted).
  [[nodiscard]] std::uint64_t bytes_logical() const { return bytes_logical_; }

  /// All keys, in insertion order (for persistence): `keys()[r.index()]`
  /// is the key of ref `r`.
  [[nodiscard]] const std::vector<BlobKey>& keys() const { return keys_; }

 private:
  /// Stores `payload` under `key`, its content key, unless present.
  BlobRef add(BlobKey key, std::string_view payload);
  /// The ref of `key`; throws `HistoryError` when absent.
  [[nodiscard]] BlobRef require(std::string_view key) const;
  /// `ref`'s ordinal; throws `HistoryError` when it names no payload.
  [[nodiscard]] std::size_t index_of(BlobRef ref) const;

  /// Found by a view of the key, so `find` copies nothing.
  std::unordered_map<BlobKey, BlobRef, support::TextHash, std::equal_to<>>
      refs_;
  /// Key and payload of each ref, by ordinal.
  std::vector<BlobKey> keys_;
  std::vector<std::string> payloads_;
  std::uint64_t bytes_stored_ = 0;
  std::uint64_t bytes_logical_ = 0;
};

}  // namespace herc::data
