#include "data/blob_store.hpp"

#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/record.hpp"
#include "support/text.hpp"

namespace herc::data {

using support::HistoryError;

BlobKey BlobStore::put(std::string_view payload) {
  BlobKey key = key_for(payload);
  bytes_logical_ += payload.size();
  auto [it, inserted] = blobs_.try_emplace(key, std::string(payload));
  if (inserted) {
    bytes_stored_ += payload.size();
    order_.push_back(key);
  }
  return key;
}

BlobKey BlobStore::key_for(std::string_view payload) {
  return support::hash_hex(support::fnv1a(payload));
}

void BlobStore::restore(const BlobKey& key, std::string_view payload) {
  if (key_for(payload) != key) {
    throw HistoryError("blob store: content hash mismatch for key '" + key +
                       "' (corrupt record rejected)");
  }
  put(payload);
}

bool BlobStore::contains(const BlobKey& key) const {
  return blobs_.contains(key);
}

const std::string& BlobStore::get(const BlobKey& key) const {
  const auto it = blobs_.find(key);
  if (it == blobs_.end()) {
    throw HistoryError("no blob with key '" + key + "'");
  }
  return it->second;
}

std::string BlobStore::record_line(const BlobKey& key) const {
  return support::RecordWriter("blob").field(key).field(get(key)).str();
}

std::string BlobStore::save() const {
  std::string out;
  for (const BlobKey& key : order_) {
    out += record_line(key);
    out += '\n';
  }
  return out;
}

BlobStore BlobStore::load(std::string_view text) {
  BlobStore store;
  for (const std::string& line : support::split(text, '\n')) {
    if (support::trim(line).empty()) continue;
    support::RecordReader rec(line);
    if (rec.kind() != "blob") {
      throw HistoryError("blob store: unexpected record '" +
                         std::string(rec.kind()) + "'");
    }
    const std::string key = rec.next_string();
    const std::string payload = rec.next_string();
    store.restore(key, payload);
  }
  return store;
}

}  // namespace herc::data
