#include "data/blob_store.hpp"

#include "support/error.hpp"
#include "support/hash.hpp"

namespace herc::data {

using support::HistoryError;

BlobRef BlobStore::put(std::string_view payload) {
  return add(key_for(payload), payload);
}

BlobRef BlobStore::add(BlobKey key, std::string_view payload) {
  bytes_logical_ += payload.size();
  const BlobRef next(static_cast<std::uint32_t>(keys_.size()));
  const auto [it, inserted] = refs_.try_emplace(std::move(key), next);
  if (inserted) {
    keys_.push_back(it->first);
    payloads_.emplace_back(payload);
    bytes_stored_ += payload.size();
  }
  return it->second;
}

BlobKey BlobStore::key_for(std::string_view payload) {
  return support::hash_hex(support::fnv1a(payload));
}

void BlobStore::restore(const BlobKey& key, std::string_view payload) {
  BlobKey actual = key_for(payload);
  if (actual != key) {
    throw HistoryError("blob store: content hash mismatch for key '" + key +
                       "' (corrupt record rejected)");
  }
  add(std::move(actual), payload);
}

bool BlobStore::contains(const BlobKey& key) const {
  return refs_.contains(key);
}

std::optional<BlobRef> BlobStore::find(std::string_view key) const {
  const auto it = refs_.find(key);
  if (it == refs_.end()) return std::nullopt;
  return it->second;
}

BlobRef BlobStore::require(std::string_view key) const {
  const std::optional<BlobRef> ref = find(key);
  if (!ref) {
    throw HistoryError("no blob with key '" + std::string(key) + "'");
  }
  return *ref;
}

const std::string& BlobStore::get(const BlobKey& key) const {
  return payloads_[require(key).index()];
}

const std::string& BlobStore::get(BlobRef ref) const {
  return payloads_[index_of(ref)];
}

const BlobKey& BlobStore::key(BlobRef ref) const {
  return keys_[index_of(ref)];
}

std::size_t BlobStore::index_of(BlobRef ref) const {
  if (!contains(ref)) {
    throw HistoryError("no blob with ref " + std::to_string(ref.value()));
  }
  return ref.index();
}

}  // namespace herc::data
