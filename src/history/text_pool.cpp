#include "history/text_pool.hpp"

#include <limits>
#include <utility>

#include "support/error.hpp"

namespace herc::history {

namespace {

constexpr std::size_t kCountBytes = sizeof(std::uint32_t);

/// Every run starts 4-aligned, so its count and ids read in place.
constexpr std::size_t aligned(std::size_t bytes) {
  return (bytes + 3) & ~std::size_t{3};
}

std::uint32_t run_count(std::size_t n) {
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw support::HistoryError("a name, comment or input list of " +
                                std::to_string(n) +
                                " elements is too long for the history");
  }
  return static_cast<std::uint32_t>(n);
}

template <class Roles>
std::size_t hash_roles(const Roles& roles) {
  std::size_t h = roles.size();
  for (const std::string_view role : roles) {
    h = h * 31 + std::hash<std::string_view>{}(role);
  }
  return h;
}

}  // namespace

TextPool::TextPool(TextPool&& other) noexcept
    : texts_(std::move(other.texts_)),
      role_lists_(std::move(other.role_lists_)),
      blocks_(std::move(other.blocks_)),
      free_(std::exchange(other.free_, nullptr)),
      room_(std::exchange(other.room_, 0)),
      staged_(std::exchange(other.staged_, 0)) {}

TextPool& TextPool::operator=(TextPool&& other) noexcept {
  if (this != &other) {
    texts_ = std::move(other.texts_);
    role_lists_ = std::move(other.role_lists_);
    blocks_ = std::move(other.blocks_);
    free_ = std::exchange(other.free_, nullptr);
    room_ = std::exchange(other.room_, 0);
    staged_ = std::exchange(other.staged_, 0);
  }
  return *this;
}

Text TextPool::text(std::string_view text) {
  if (text.empty()) return Text();
  auto it = texts_.find(text);
  if (it == texts_.end()) it = texts_.emplace(text).first;
  return Text(&*it);
}

RoleList TextPool::roles(std::span<const std::string_view> roles) {
  if (roles.empty()) return RoleList();
  auto it = role_lists_.find(roles);
  if (it == role_lists_.end()) {
    it = role_lists_.emplace(roles.begin(), roles.end()).first;
  }
  return RoleList(&*it);
}

ArenaText TextPool::copy(std::string_view text) {
  if (text.empty()) return ArenaText();
  return ArenaText(add_run(run_count(text.size()), text.data(), text.size()));
}

ArenaIds TextPool::copy(std::span<const data::InstanceId> ids) {
  if (ids.empty()) return ArenaIds();
  if (staged_ != 0 && ids.size() == staged_ &&
      ids.data() == staged_ids().data()) {
    // The staged ids are already in place: write their count and keep them.
    std::byte* const run = free_;
    std::memcpy(run, &staged_, kCountBytes);
    const std::size_t bytes = kCountBytes + ids.size_bytes();
    free_ += bytes;
    room_ -= bytes;
    staged_ = 0;
    return ArenaIds(run);
  }
  return ArenaIds(add_run(run_count(ids.size()), ids.data(), ids.size_bytes()));
}

void TextPool::stage_id(data::InstanceId id) {
  make_room(kCountBytes + (std::size_t{staged_} + 1) * sizeof id);
  std::memcpy(free_ + kCountBytes + std::size_t{staged_} * sizeof id, &id,
              sizeof id);
  ++staged_;
}

std::span<const data::InstanceId> TextPool::staged_ids() const {
  if (staged_ == 0) return {};
  return {reinterpret_cast<const data::InstanceId*>(free_ + kCountBytes),
          staged_};
}

const std::byte* TextPool::add_run(std::uint32_t count, const void* from,
                                   std::size_t bytes) {
  staged_ = 0;
  const std::size_t need = aligned(kCountBytes + bytes);
  std::byte* run = nullptr;
  if (need > kArenaBlockBytes / 8) {
    // A block of its own, so the one being filled keeps its room.
    blocks_.push_back(std::make_unique_for_overwrite<std::byte[]>(need));
    run = blocks_.back().get();
  } else {
    make_room(need);
    run = free_;
    free_ += need;
    room_ -= need;
  }
  std::memcpy(run, &count, kCountBytes);
  std::memcpy(run + kCountBytes, from, bytes);
  return run;
}

void TextPool::make_room(std::size_t bytes) {
  if (bytes <= room_) return;
  // Twice the room a long staged run needs, so that staging it id by id
  // copies it a logarithmic number of times.
  const std::size_t size = std::max(kArenaBlockBytes, 2 * bytes);
  blocks_.push_back(std::make_unique_for_overwrite<std::byte[]>(size));
  std::byte* const block = blocks_.back().get();
  if (staged_ != 0) {
    std::memcpy(block + kCountBytes, free_ + kCountBytes,
                std::size_t{staged_} * sizeof(data::InstanceId));
  }
  free_ = block;
  room_ = size;
}

std::size_t TextPool::RolesHash::operator()(
    const std::vector<std::string>& roles) const {
  return hash_roles(roles);
}

std::size_t TextPool::RolesHash::operator()(
    std::span<const std::string_view> roles) const {
  return hash_roles(roles);
}

}  // namespace herc::history
